package trace

import (
	"testing"
	"time"
)

func TestSixUsersKeystrokeBudget(t *testing.T) {
	traces := SixUsers(1, 1664)
	if len(traces) != 6 {
		t.Fatalf("%d traces", len(traces))
	}
	total := 0
	for _, tr := range traces {
		total += len(tr.Steps)
	}
	// The paper's corpus had 9,986 keystrokes across six users.
	if total < 9000 || total > 11000 {
		t.Fatalf("total keystrokes = %d, want ≈10k", total)
	}
}

func TestTypingFractionMatchesPaper(t *testing.T) {
	traces := SixUsers(1, 1664)
	typing, total := 0, 0
	for _, tr := range traces {
		typing += typingSteps(tr)
		total += len(tr.Steps)
	}
	frac := float64(typing) / float64(total)
	// The paper bounds typing from below — "more than two-thirds of user
	// keystrokes" (§3.2) — with ~70% of all keystrokes displayed
	// instantly (§4). The generator targets that window.
	if frac < 0.67 || frac > 0.90 {
		t.Fatalf("typing fraction = %.2f, want in [0.67, 0.90]", frac)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Generate(7, SixProfiles()[0], 500)
	b := Generate(7, SixProfiles()[0], 500)
	if len(a.Steps) != len(b.Steps) {
		t.Fatal("nondeterministic step count")
	}
	for i := range a.Steps {
		if a.Steps[i].At != b.Steps[i].At || string(a.Steps[i].Data) != string(b.Steps[i].Data) ||
			string(a.Steps[i].Response) != string(b.Steps[i].Response) {
			t.Fatalf("traces diverge at step %d", i)
		}
	}
}

func TestStepsMonotonicAndPlausible(t *testing.T) {
	tr := Generate(3, SixProfiles()[3], 1000)
	var prev time.Duration
	for i, s := range tr.Steps {
		if s.At < prev {
			t.Fatalf("step %d goes back in time", i)
		}
		prev = s.At
		if len(s.Data) == 0 {
			t.Fatalf("step %d has no keystroke bytes", i)
		}
		if s.ResponseDelay < 0 || s.ResponseDelay > 200*time.Millisecond {
			t.Fatalf("step %d response delay %v", i, s.ResponseDelay)
		}
	}
	if tr.Duration() < time.Minute {
		t.Fatalf("1000-keystroke trace lasts only %v", tr.Duration())
	}
}

func TestTypingStepsEcho(t *testing.T) {
	// Typing keystrokes in shell/editor contexts should mostly have an
	// echo response containing the typed byte.
	tr := Generate(5, SixProfiles()[0], 800)
	echoed, typing := 0, 0
	for _, s := range tr.Steps {
		if s.Kind != Typing {
			continue
		}
		typing++
		for _, b := range s.Response {
			if len(s.Data) == 1 && b == s.Data[0] {
				echoed++
				break
			}
		}
	}
	if typing == 0 {
		t.Fatal("no typing steps")
	}
	if frac := float64(echoed) / float64(typing); frac < 0.9 {
		t.Fatalf("only %.2f of typing steps echo", frac)
	}
}

func TestNavigationStepsRepaint(t *testing.T) {
	tr := Generate(9, SixProfiles()[2], 800) // mail-heavy
	nav, repaint := 0, 0
	for _, s := range tr.Steps {
		if s.Kind != Navigation {
			continue
		}
		nav++
		if len(s.Response) > 100 {
			repaint++
		}
	}
	if nav == 0 {
		t.Fatal("mail-heavy trace has no navigation")
	}
	if repaint == 0 {
		t.Fatal("navigation never repainted the screen")
	}
}

func TestProfilesDiffer(t *testing.T) {
	traces := SixUsers(1, 1664)
	fChat := float64(typingSteps(traces[4])) / float64(len(traces[4].Steps)) // compose-heavy
	fMail := float64(typingSteps(traces[2])) / float64(len(traces[2].Steps)) // navigation-heavy
	if fChat <= fMail {
		t.Fatalf("chat user typing fraction %.2f should exceed mail user %.2f", fChat, fMail)
	}
}

// typingSteps counts tr's keystrokes of kind Typing.
func typingSteps(tr *Trace) int {
	n := 0
	for _, s := range tr.Steps {
		if s.Kind == Typing {
			n++
		}
	}
	return n
}

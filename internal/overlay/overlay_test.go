package overlay

import (
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/terminal"
)

var t0 = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

// env bundles an engine with a pretend server screen for direct tests.
type env struct {
	clk *simclock.Scheduler
	e   *Engine
	fb  *terminal.Framebuffer // client's view of the server screen
	emu *terminal.Emulator
	seq uint64
}

func newEnv(pref DisplayPreference) *env {
	clk := simclock.NewScheduler(t0)
	emu := terminal.NewEmulator(40, 10)
	v := &env{clk: clk, e: NewEngine(clk, pref), emu: emu, fb: emu.Framebuffer()}
	// Slow connection so Adaptive mode predicts.
	v.e.SetSendInterval(250 * time.Millisecond)
	v.e.Cull(v.fb)
	return v
}

// typeByte simulates the user pressing a key: the engine sees it, then the
// "network" sends user-stream state seq.
func (v *env) typeByte(b byte) uint64 {
	v.seq++
	v.e.NewUserInput(v.seq, []byte{b}, v.fb)
	v.e.SetLocalFrameSent(v.seq)
	return v.seq
}

// serverEchoes makes the authoritative screen echo s and acknowledges all
// input through seq (as the echo ack would).
func (v *env) serverEchoes(s string, seq uint64) {
	v.emu.Write([]byte(s))
	v.e.SetLocalFrameLateAcked(seq)
	v.e.Cull(v.fb)
}

func display(v *env) *terminal.Framebuffer {
	d := v.fb.Clone()
	v.e.Apply(d)
	return d
}

func TestFirstEpochIsTentative(t *testing.T) {
	v := newEnv(Adaptive)
	v.typeByte('h')
	d := display(v)
	if d.Cell(0, 0).ContentsString() == "h" {
		t.Fatal("unconfirmed first-epoch prediction was displayed")
	}
}

func TestEpochConfirmationDisplaysPredictions(t *testing.T) {
	v := newEnv(Adaptive)
	s1 := v.typeByte('h')
	v.typeByte('e')
	v.typeByte('y')
	// Server confirms the first keystroke only.
	v.serverEchoes("h", s1)
	d := display(v)
	if got := d.Cell(0, 1).ContentsString(); got != "e" {
		t.Fatalf("cell(0,1) = %q; epoch confirmation should display later predictions", got)
	}
	if got := d.Cell(0, 2).ContentsString(); got != "y" {
		t.Fatalf("cell(0,2) = %q", got)
	}
	// And future keystrokes in the same epoch display immediately.
	v.typeByte('!')
	d = display(v)
	if got := d.Cell(0, 3).ContentsString(); got != "!" {
		t.Fatalf("cell(0,3) = %q; same-epoch prediction should show instantly", got)
	}
}

func TestPredictionsAdvanceCursor(t *testing.T) {
	v := newEnv(Adaptive)
	s1 := v.typeByte('a')
	v.serverEchoes("a", s1)
	v.typeByte('b')
	v.typeByte('c')
	d := display(v)
	if d.DS.CursorCol != 3 {
		t.Fatalf("displayed cursor col = %d, want 3", d.DS.CursorCol)
	}
}

func TestMispredictionRepairs(t *testing.T) {
	v := newEnv(Adaptive)
	s1 := v.typeByte('x')
	v.serverEchoes("x", s1) // confident now
	s2 := v.typeByte('y')   // predicted 'y' at (0,1), displayed
	if got := display(v).Cell(0, 1).ContentsString(); got != "y" {
		t.Fatalf("prediction not displayed: %q", got)
	}
	// Server actually printed 'Z' there (host did something different).
	v.serverEchoes("Z", s2)
	d := display(v)
	if got := d.Cell(0, 1).ContentsString(); got != "Z" {
		t.Fatalf("cell(0,1) = %q after repair, want server's Z", got)
	}
	if v.e.Stats().Incorrect == 0 {
		t.Fatal("misprediction not counted")
	}
}

func TestWrongTentativePredictionKillsEpochQuietly(t *testing.T) {
	v := newEnv(Adaptive)
	s1 := v.typeByte('q') // tentative prediction
	// Host does not echo (e.g. password prompt): screen unchanged.
	v.e.SetLocalFrameLateAcked(s1)
	v.e.Cull(v.fb)
	d := display(v)
	if d.Cell(0, 0).ContentsString() == "q" {
		t.Fatal("killed prediction still displayed")
	}
	if v.e.Stats().EpochsKilled == 0 {
		t.Fatal("epoch not killed")
	}
	// Confidence was never granted, so future predictions stay hidden.
	v.typeByte('r')
	if display(v).Cell(0, 1).ContentsString() == "r" {
		t.Fatal("post-kill prediction displayed without confirmation")
	}
}

func TestControlCharactersEndEpoch(t *testing.T) {
	v := newEnv(Adaptive)
	s1 := v.typeByte('a')
	v.serverEchoes("a", s1)
	v.typeByte('b') // displayed (confirmed epoch)
	epochBefore := v.e.predictionEpoch
	v.typeByte(0x03) // Ctrl-C
	if v.e.predictionEpoch <= epochBefore {
		t.Fatal("control character did not end the epoch")
	}
	// New predictions are tentative again.
	v.typeByte('c')
	d := display(v)
	found := false
	for col := 0; col < d.W; col++ {
		if d.Cell(0, col).ContentsString() == "c" {
			found = true
		}
	}
	if found {
		t.Fatal("post-control prediction displayed before confirmation")
	}
}

func TestArrowKeysEndEpoch(t *testing.T) {
	v := newEnv(Adaptive)
	epochBefore := v.e.predictionEpoch
	v.seq++
	v.e.NewUserInput(v.seq, terminal.EncodeSpecial(terminal.KeyUp, false), v.fb)
	if v.e.predictionEpoch <= epochBefore {
		t.Fatal("arrow key did not end the epoch")
	}
}

func TestBackspacePrediction(t *testing.T) {
	v := newEnv(Adaptive)
	s1 := v.typeByte('a')
	v.serverEchoes("a", s1)
	s2 := v.typeByte('b')
	v.serverEchoes("b", s2)
	// Cursor is at col 2; backspace should predict erasing col 1.
	v.typeByte(0x7f)
	d := display(v)
	if got := d.Cell(0, 1).ContentsString(); got == "b" {
		t.Fatalf("backspace prediction did not erase: %q", got)
	}
	if d.DS.CursorCol != 1 {
		t.Fatalf("cursor after backspace prediction = %d", d.DS.CursorCol)
	}
}

func TestNeverPreferenceDisablesEngine(t *testing.T) {
	v := newEnv(Never)
	s1 := v.typeByte('a')
	v.serverEchoes("a", s1)
	v.typeByte('b')
	if display(v).Cell(0, 1).ContentsString() == "b" {
		t.Fatal("Never preference displayed a prediction")
	}
	if v.e.Stats().Predicted != 0 {
		t.Fatal("Never preference made predictions")
	}
}

func TestAdaptiveHidesOnFastConnection(t *testing.T) {
	v := newEnv(Adaptive)
	v.e.SetSendInterval(5 * time.Millisecond) // LAN-fast
	s1 := v.typeByte('a')
	v.serverEchoes("a", s1)
	v.typeByte('b')
	if display(v).Cell(0, 1).ContentsString() == "b" {
		t.Fatal("fast connection should not display predictions")
	}
}

func TestAlwaysPreferenceShowsAfterConfirmation(t *testing.T) {
	v := newEnv(Always)
	v.e.SetSendInterval(5 * time.Millisecond)
	s1 := v.typeByte('a')
	v.serverEchoes("a", s1)
	v.typeByte('b')
	if display(v).Cell(0, 1).ContentsString() != "b" {
		t.Fatal("Always preference should display despite fast connection")
	}
}

func TestFlaggingUnderlinesPredictions(t *testing.T) {
	v := newEnv(Adaptive)
	v.e.SetSendInterval(300 * time.Millisecond) // above flag trigger
	s1 := v.typeByte('a')
	v.serverEchoes("a", s1)
	v.typeByte('b')
	d := display(v)
	if !d.Cell(0, 1).Rend.Has(terminal.AttrUnderline) {
		t.Fatal("high-latency prediction not underlined")
	}
	if !v.e.flagging {
		t.Fatal("flagging not set")
	}
}

func TestNoUnderlineOnModerateLatency(t *testing.T) {
	v := newEnv(Adaptive)
	v.e.SetSendInterval(40 * time.Millisecond) // predict but no flag
	s1 := v.typeByte('a')
	v.serverEchoes("a", s1)
	v.typeByte('b')
	d := display(v)
	if d.Cell(0, 1).ContentsString() != "b" {
		t.Fatal("prediction should display")
	}
	if d.Cell(0, 1).Rend.Has(terminal.AttrUnderline) {
		t.Fatal("prediction underlined below flag trigger")
	}
}

func TestEchoAckGatesJudgement(t *testing.T) {
	// A prediction must NOT be judged wrong merely because the server
	// acked the keystroke before the application echoed (§3.2) — only
	// the echo ack (late ack) triggers judgement.
	v := newEnv(Adaptive)
	s1 := v.typeByte('h')
	v.e.SetLocalFrameAcked(s1) // acked, but echo not yet reflected
	v.e.Cull(v.fb)
	if _, ok := v.e.records[s1]; !ok {
		t.Fatal("record vanished")
	}
	if v.e.records[s1].Outcome != OutcomePending {
		t.Fatalf("prediction judged before echo ack: %v", v.e.records[s1].Outcome)
	}
	// Now the echo arrives together with the echo ack: correct.
	v.serverEchoes("h", s1)
	rec, ok := v.e.TakeInputRecord(s1)
	if !ok || rec.Outcome != OutcomeCorrect {
		t.Fatalf("outcome = %+v, ok=%v", rec, ok)
	}
}

func TestLastColumnIsCautious(t *testing.T) {
	v := newEnv(Adaptive)
	// Put the real cursor at the right margin (col 39 of 40).
	v.emu.Write([]byte("\x1b[1;40H"))
	epochBefore := v.e.predictionEpoch
	v.typeByte('x')
	// The echo itself is predicted, but the epoch turns tentative: the
	// next position depends on the host's wrap behavior (the paper's
	// word-wrap hazard).
	if v.e.predictionEpoch <= epochBefore {
		t.Fatal("typing at the margin should become tentative (word-wrap hazard)")
	}
	if v.e.Stats().Predicted != 1 {
		t.Fatalf("predicted %d cells, want the margin echo itself", v.e.Stats().Predicted)
	}
	// The predicted cursor continues on the next row, so follow-on
	// typing stays aligned.
	if !v.e.cursor.active || v.e.cursor.row != 1 || v.e.cursor.col != 0 {
		t.Fatalf("cursor prediction after wrap = %+v", v.e.cursor)
	}
}

func TestResizeResetsPredictions(t *testing.T) {
	v := newEnv(Adaptive)
	s1 := v.typeByte('a')
	v.serverEchoes("a", s1)
	v.typeByte('b')
	v.emu.Resize(80, 24)
	v.e.Cull(v.emu.Framebuffer())
	d := v.emu.Framebuffer().Clone()
	v.e.Apply(d)
	if d.Cell(0, 1).ContentsString() == "b" {
		t.Fatal("prediction survived a resize")
	}
}

func TestPendingExpiryResets(t *testing.T) {
	v := newEnv(Adaptive)
	v.typeByte('a')
	v.clk.RunFor(25 * time.Second) // connection dead
	v.e.Cull(v.fb)
	if v.e.anyActive() {
		t.Fatal("stale predictions not abandoned")
	}
	// But predictions younger than the worst plausible verification
	// round trip (bufferbloated LTE) must survive.
	v2 := newEnv(Adaptive)
	v2.typeByte('b')
	v2.clk.RunFor(8 * time.Second)
	v2.e.Cull(v2.fb)
	if !v2.e.anyActive() {
		t.Fatal("prediction abandoned before a bufferbloated RTT elapsed")
	}
}

func TestUTF8KeystrokePrediction(t *testing.T) {
	v := newEnv(Adaptive)
	s1 := v.typeByte('a')
	v.serverEchoes("a", s1)
	// é as a single multi-byte event.
	v.seq++
	v.e.NewUserInput(v.seq, []byte("é"), v.fb)
	v.e.SetLocalFrameSent(v.seq)
	d := display(v)
	if got := d.Cell(0, 1).ContentsString(); got != "é" {
		t.Fatalf("cell(0,1) = %q, want é", got)
	}
	// é split into two single-byte events (raw tty read).
	raw := []byte("ü")
	v.seq++
	v.e.NewUserInput(v.seq, raw[:1], v.fb)
	v.seq++
	v.e.NewUserInput(v.seq, raw[1:], v.fb)
	d = display(v)
	if got := d.Cell(0, 2).ContentsString(); got != "ü" {
		t.Fatalf("cell(0,2) = %q, want ü (split UTF-8)", got)
	}
}

func TestGlitchTriggerRaisesFlagging(t *testing.T) {
	v := newEnv(Adaptive)
	v.e.SetSendInterval(40 * time.Millisecond) // predict; below the flag-off threshold
	s1 := v.typeByte('a')
	v.clk.RunFor(400 * time.Millisecond) // slow confirmation: a glitch
	v.serverEchoes("a", s1)
	if !v.e.flagging {
		t.Fatal("slow confirmation did not raise flagging")
	}
	// Ten quick confirmations spaced out repair confidence.
	for i := 0; i < glitchRepairCount; i++ {
		s := v.typeByte(byte('b' + i))
		v.clk.RunFor(200 * time.Millisecond)
		v.serverEchoes(string(rune('b'+i)), s)
	}
	if v.e.flagging {
		t.Fatal("flagging not repaired after quick confirmations")
	}
}

func TestStatsTracking(t *testing.T) {
	v := newEnv(Adaptive)
	s1 := v.typeByte('a')
	v.serverEchoes("a", s1)
	s2 := v.typeByte('b')
	v.serverEchoes("b", s2)
	st := v.e.Stats()
	if st.InputEvents != 2 || st.Predicted != 2 || st.Correct < 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestInputRecordLifecycle(t *testing.T) {
	v := newEnv(Adaptive)
	s1 := v.typeByte('a')
	rec, ok := v.e.TakeInputRecord(s1)
	if !ok || rec.Outcome != OutcomePending || rec.Displayed {
		t.Fatalf("fresh record = %+v", rec)
	}
	if _, ok := v.e.TakeInputRecord(s1); ok {
		t.Fatal("record not removed")
	}
}

// TestGlitchThresholdBoundary pins the glitch check: a prediction the
// server confirms just under glitchThreshold after it was made leaves
// flagging off, and one confirmed at glitchThreshold turns it on. The send
// interval sits between the SRTT and flagging triggers, so predictions
// show and only a glitch can raise flagging.
func TestGlitchThresholdBoundary(t *testing.T) {
	for _, tc := range []struct {
		after time.Duration
		flag  bool
	}{
		{glitchThreshold - time.Nanosecond, false},
		{glitchThreshold, true},
	} {
		v := newEnv(Adaptive)
		v.e.SetSendInterval(40 * time.Millisecond)
		v.e.Cull(v.fb)
		s := v.typeByte('a')
		v.clk.RunFor(tc.after)
		v.serverEchoes("a", s)
		if v.e.flagging != tc.flag {
			t.Errorf("confirmed %v after the prediction: flagging = %v, want %v", tc.after, v.e.flagging, tc.flag)
		}
	}
}

// TestPendingExpiryBoundary pins the pending expiry: a prediction the
// server has not acknowledged survives a cull pendingExpiry after it was
// made, and the engine resets on the first cull past that.
func TestPendingExpiryBoundary(t *testing.T) {
	v := newEnv(Adaptive)
	v.typeByte('a')
	v.clk.RunFor(pendingExpiry)
	v.e.Cull(v.fb)
	if !v.e.anyActive() {
		t.Fatalf("prediction expired at %v, want it kept until past it", pendingExpiry)
	}
	v.clk.RunFor(time.Nanosecond)
	v.e.Cull(v.fb)
	if v.e.anyActive() {
		t.Fatalf("prediction outlived %v", pendingExpiry)
	}
}

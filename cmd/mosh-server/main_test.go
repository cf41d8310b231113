package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestParseDemo: each -demo name builds its application, and an unknown or
// empty name is an error instead of the shell.
func TestParseDemo(t *testing.T) {
	for _, c := range []struct{ name, want string }{
		{"shell", "*host.Shell"},
		{"editor", "*host.Editor"},
		{"mail", "*host.MailReader"},
		{"edtor", ""},
		{"", ""},
	} {
		newApp, err := parseDemo(c.name)
		if c.want == "" {
			if err == nil {
				t.Errorf("parseDemo(%q) accepted an unknown name", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseDemo(%q): %v", c.name, err)
			continue
		}
		if got := fmt.Sprintf("%T", newApp(1)); got != c.want {
			t.Errorf("parseDemo(%q) builds %s, want %s", c.name, got, c.want)
		}
	}
}

// TestUnknownProviderIsUsageError: an unknown -udp-provider is a usage
// error (status 2) caught before any session is issued, so no bootstrap
// line, and no live key with it, reaches stdout.
func TestUnknownProviderIsUsageError(t *testing.T) {
	var stdout strings.Builder
	if code := run([]string{"-udp-provider", "bogus", "-port", "0", "-sessions", "2"}, &stdout); code != 2 {
		t.Errorf("exit status %d, want 2", code)
	}
	if strings.Contains(stdout.String(), "MOSH") {
		t.Errorf("stdout carries bootstrap lines:\n%s", stdout.String())
	}
}

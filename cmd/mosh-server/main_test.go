package main

import (
	"fmt"
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

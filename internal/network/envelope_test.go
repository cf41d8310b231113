package network

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/simclock"
	"repro/internal/sspcrypto"
)

// TestEnvelopeLength pins the envelope's length at each uvarint boundary,
// and that a Connection's Overhead counts exactly that many bytes for it.
func TestEnvelopeLength(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	plain, err := NewConnection(Config{Direction: sspcrypto.ToServer, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id   uint64
		want int
	}{
		{1, 1},
		{127, 1},
		{128, 2},
		{16383, 2},
		{16384, 3},
		{1<<56 - 1, 8},
		{math.MaxUint64, 10},
	} {
		env := AppendEnvelope(nil, tc.id)
		if len(env) != tc.want {
			t.Errorf("id %d: envelope % x is %d B, want %d", tc.id, env, len(env), tc.want)
		}
		id, inner, err := ParseEnvelope(append(env, "ssp"...))
		if err != nil || id != tc.id || string(inner) != "ssp" {
			t.Errorf("id %d: ParseEnvelope = %d, %q, %v", tc.id, id, inner, err)
		}
		c, err := NewConnection(Config{Direction: sspcrypto.ToServer, Clock: clk, Envelope: &Envelope{ID: tc.id}})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Overhead() - plain.Overhead(); got != tc.want {
			t.Errorf("id %d: Overhead counts %d B of envelope, want %d", tc.id, got, tc.want)
		}
	}
}

// FuzzEnvelope: every id round-trips, and arbitrary bytes either fail to
// parse or name an id whose envelope is exactly the prefix consumed, so no
// session answers to two envelopes.
func FuzzEnvelope(f *testing.F) {
	f.Add(uint64(1), []byte{0x01, 0x00})
	f.Fuzz(func(t *testing.T, id uint64, wire []byte) {
		env := AppendEnvelope(nil, id)
		got, inner, err := ParseEnvelope(append(env, wire...))
		if err != nil || got != id || !bytes.Equal(inner, wire) {
			t.Fatalf("id %d (% x): ParseEnvelope = %d, % x, %v", id, env, got, inner, err)
		}
		got, inner, err = ParseEnvelope(wire)
		if err != nil {
			if !errors.Is(err, ErrEnvelope) || inner != nil {
				t.Fatalf("% x: ParseEnvelope = %q, %v", wire, inner, err)
			}
			return
		}
		n := len(wire) - len(inner)
		if !bytes.Equal(AppendEnvelope(nil, got), wire[:n]) || !bytes.Equal(inner, wire[n:]) {
			t.Fatalf("% x: ParseEnvelope = %d after %d B, whose envelope is % x", wire, got, n, AppendEnvelope(nil, got))
		}
	})
}

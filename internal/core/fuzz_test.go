package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
)

// TestGarbageDatagramsNeverPanic throws random bytes at both endpoints:
// an attacker on the path must not be able to crash or desynchronize a
// session (packets fail authentication and are dropped).
func TestGarbageDatagramsNeverPanic(t *testing.T) {
	ss := newSession(t, netem.LinkParams{Delay: 20 * time.Millisecond}, overlay.Adaptive)
	ss.run(time.Second)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		n := 1 + rng.Intn(600)
		junk := make([]byte, n)
		rng.Read(junk)
		if rng.Intn(2) == 0 {
			ss.server.Receive(junk, netem.Addr{Host: uint32(rng.Uint32()), Port: uint16(rng.Intn(65536))})
		} else {
			ss.client.Receive(junk, netem.Addr{Host: uint32(rng.Uint32())})
		}
	}
	// The session still works afterwards.
	ss.typeString("alive")
	ss.run(3 * time.Second)
	if got := displayRow(ss, 0); got != "alive" {
		t.Fatalf("session broken after garbage: %q", got)
	}
	// And the garbage did not steal the server's reply target.
	if ss.server.Transport().Connection().RemoteAddrChanges() != 0 {
		t.Fatal("forged packets moved the roaming target")
	}
}

// TestTruncatedAndBitflippedDatagrams replays real session traffic with
// random corruption; authentication must reject every damaged packet.
func TestTruncatedAndBitflippedDatagrams(t *testing.T) {
	key := sspcrypto.Key{5}
	clk := simclock.NewScheduler(time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC))
	var wires [][]byte
	client, err := NewClient(ClientConfig{
		Key: key, Clock: clk,
		Emit: func(w []byte) { wires = append(wires, append([]byte(nil), w...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(ServerConfig{Key: key, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	client.TypeRune('x')
	client.Tick()
	if len(wires) == 0 {
		t.Fatal("client sent nothing")
	}
	rng := rand.New(rand.NewSource(4))
	src := netem.Addr{Host: 9}
	for _, w := range wires {
		for trial := 0; trial < 50; trial++ {
			m := append([]byte(nil), w...)
			switch rng.Intn(3) {
			case 0:
				m = m[:rng.Intn(len(m))]
			case 1:
				m[rng.Intn(len(m))] ^= byte(1 + rng.Intn(255))
			case 2:
				m = append(m, byte(rng.Intn(256)))
			}
			if err := server.Receive(m, src); err == nil {
				// A truncation that only removes trailing bytes of a
				// previously-unseen packet can never authenticate; err
				// must be non-nil. The only acceptable nil is a replay
				// of the exact original, which corruption precludes.
				t.Fatalf("corrupted packet accepted (trial %d)", trial)
			}
		}
	}
}

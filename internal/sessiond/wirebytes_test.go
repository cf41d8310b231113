package sessiond_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/sessiond"
	"repro/internal/sspcrypto"
)

// TestEchoDatagramBytes pins, field by field, the two datagrams a keystroke
// costs downstream: the echo of `a` on an 80×24 shell and the §3.2
// echo-ack frame that follows it 50 ms later. Every byte of fixed cost per
// datagram is accounted for here, so a format change that adds one fails.
// The session-ID envelope is the ID's minimal uvarint: 1 byte for session
// 1, 2 bytes for session 128.
func TestEchoDatagramBytes(t *testing.T) {
	for _, tc := range []struct {
		id                 uint64
		envelope           int
		echo, echoAckFrame int
	}{
		{id: 1, envelope: 1, echo: 39, echoAckFrame: 38},
		{id: 128, envelope: 2, echo: 40, echoAckFrame: 39},
	} {
		t.Run(fmt.Sprintf("session-%d", tc.id), func(t *testing.T) {
			echo, echoAckFrame := echoDatagrams(t, tc.id, tc.envelope)
			if echo != tc.echo || echoAckFrame != tc.echoAckFrame {
				t.Fatalf("echo %d B, echo-ack %d B; want %d and %d", echo, echoAckFrame, tc.echo, tc.echoAckFrame)
			}
		})
	}
}

// echoDatagrams types `a` into session id, checks the two datagrams it costs
// downstream field by field with an envelope of the given length, and
// returns their lengths. The sessions opened before id stay idle.
func echoDatagrams(t *testing.T, id uint64, envelope int) (echo, echoAckFrame int) {
	t.Helper()
	w := newSimWorld(t, sessiond.Config{NewApp: shellApp}, lan())
	var sess *sessiond.Session
	for sess == nil || sess.ID < id {
		var err error
		if sess, err = w.d.OpenSession(); err != nil {
			t.Fatal(err)
		}
	}
	if sess.ID != id {
		t.Fatalf("opened session %d, want %d", sess.ID, id)
	}
	c := w.addClient(sess, netem.Addr{Host: 1, Port: 1000})
	w.sched.RunFor(2 * time.Second) // connect: the first frame is sequence number 0
	var sent [][]byte
	w.tap = func(_ netem.Addr, wire []byte) { sent = append(sent, bytes.Clone(wire)) }
	c.typeString("a")
	w.sched.RunFor(300 * time.Millisecond)

	const (
		seqHeader  = 8  // direction bit and sequence number, the OCB nonce
		timestamps = 4  // send time and timestamp reply, 16 bits each
		tag        = 16 // OCB authentication tag
		fragHeader = 1  // uvarint(num<<1 | final): fragment 0, final
		flag       = 1  // protocol version 4 << 1 | not compressed
		instHeader = 4  // NewNum, NewNum−OldNum, OldNum−ThrowawayNum, AckNum: a byte each
	)
	// The envelope is the session id in cleartext.
	fixed := envelope + seqHeader + timestamps + tag + fragHeader + flag + instHeader
	want := []struct {
		what string
		seq  uint64
		// body is the plaintext after the timestamps: fragment header, flag
		// byte, instruction header, then the screen diff (statesync.Complete:
		// width 80 'P', height 24, echo-ack count, then the frame).
		body string
	}{
		// State 2 from state 1, the acknowledged baseline (ThrowawayNum 1);
		// AckNum 1 is the keystroke, the client's state 1. The frame is the
		// one character.
		{"echo of a", 1, "\x01\x08" + "\x02\x01\x00\x01" + "P\x18\x00" + "a"},
		// State 3 from state 2, which the client has not acknowledged yet
		// (ThrowawayNum still 1). The frame is empty: only the echo-ack
		// count moved.
		{"echo-ack frame", 2, "\x01\x08" + "\x03\x01\x01\x01" + "P\x18\x01"},
	}
	if len(sent) != len(want) {
		t.Fatalf("the keystroke cost %d datagrams downstream, want %d", len(sent), len(want))
	}
	crypt, err := sspcrypto.NewSession(sess.Key())
	if err != nil {
		t.Fatal(err)
	}
	for i, wire := range sent {
		wt := want[i]
		gotID, inner, err := network.ParseEnvelope(wire)
		if err != nil || gotID != id || len(wire)-len(inner) != envelope {
			t.Fatalf("%s: envelope %d of %d B, %v", wt.what, gotID, len(wire)-len(inner), err)
		}
		dir, seq, pt, err := crypt.Decrypt(inner)
		if err != nil || dir != sspcrypto.ToClient || seq != wt.seq {
			t.Fatalf("%s: direction %v, sequence number %d, %v; want sequence number %d", wt.what, dir, seq, err, wt.seq)
		}
		if body := string(pt[timestamps:]); body != wt.body {
			t.Fatalf("%s: plaintext after the timestamps is %q, want %q", wt.what, body, wt.body)
		}
		if diff := len(wt.body) - fragHeader - flag - instHeader; len(wire) != fixed+diff {
			t.Fatalf("%s: %d bytes on the wire, want %d fixed + %d of diff", wt.what, len(wire), fixed, diff)
		}
	}
	return len(sent[0]), len(sent[1])
}

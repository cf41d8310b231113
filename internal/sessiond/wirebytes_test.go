package sessiond_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/sessiond"
	"repro/internal/sspcrypto"
)

// echoCase is one session state in which TestEchoDatagramBytes types `a`.
type echoCase struct {
	name string
	id   uint64
	// envelope and seqHeader are the lengths of the session-ID envelope
	// and of the sequence header the two datagrams carry.
	envelope, seqHeader int
	// idle is how long the session sits quiet before the keystroke; its
	// heartbeats move the sequence number on.
	idle time.Duration
	// restore sends the keystroke to a daemon restored from the journal,
	// whose counters resume above the dead one's reservation.
	restore bool
	// inst are the instruction headers of the echo and the echo-ack frame:
	// NewNum, NewNum−OldNum, OldNum−ThrowawayNum and AckNum, as uvarints.
	inst [2]string
	// echo and echoAckFrame are the two datagrams' lengths on the wire.
	echo, echoAckFrame int
}

// TestEchoDatagramBytes pins, field by field, the two datagrams a keystroke
// costs downstream: the echo of `a` on an 80×24 shell and the §3.2
// echo-ack frame that follows it 50 ms later. Every byte of fixed cost per
// datagram is accounted for here, so a format change that adds one fails.
// The session-ID envelope is the ID's minimal uvarint: 1 byte for session
// 1, 2 bytes for session 128. The sequence header is the minimal uvarint of
// seq<<1 | direction: 1 byte for a fresh session's first 64 datagrams, 2
// bytes once heartbeats have carried it past 64, and 3 bytes after a
// journal restore, which resumes above a 2^16 reservation (as do the state
// numbers, so the instruction header grows too).
func TestEchoDatagramBytes(t *testing.T) {
	const fresh, next = "\x02\x01\x00\x01", "\x03\x01\x01\x01"
	for _, tc := range []echoCase{
		{name: "session-1", id: 1, envelope: 1, seqHeader: 1, inst: [2]string{fresh, next}, echo: 32, echoAckFrame: 31},
		{name: "session-128", id: 128, envelope: 2, seqHeader: 1, inst: [2]string{fresh, next}, echo: 33, echoAckFrame: 32},
		{name: "past-seq-64", id: 1, envelope: 1, seqHeader: 2, idle: 4 * time.Minute, inst: [2]string{fresh, next}, echo: 33, echoAckFrame: 32},
		// NewNum 65 539 (2^16 + 3) is three bytes; the resume repaint is
		// acknowledged, so OldNum−ThrowawayNum is 0.
		{name: "after-restore", id: 1, envelope: 1, seqHeader: 3, restore: true,
			inst: [2]string{"\x83\x80\x04\x01\x00\x01", "\x84\x80\x04\x01\x01\x01"}, echo: 36, echoAckFrame: 35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			echo, echoAckFrame := echoDatagrams(t, tc)
			if echo != tc.echo || echoAckFrame != tc.echoAckFrame {
				t.Fatalf("echo %d B, echo-ack %d B; want %d and %d", echo, echoAckFrame, tc.echo, tc.echoAckFrame)
			}
		})
	}
}

// echoDatagrams types `a` into session tc.id, checks the two datagrams it
// costs downstream field by field, and returns their lengths. The sessions
// opened before tc.id stay idle.
func echoDatagrams(t *testing.T, tc echoCase) (echo, echoAckFrame int) {
	t.Helper()
	cfg := sessiond.Config{NewApp: shellApp}
	if tc.restore {
		cfg.StateDir = t.TempDir()
	}
	w := newSimWorld(t, cfg, lan())
	var sess *sessiond.Session
	for sess == nil || sess.ID < tc.id {
		var err error
		if sess, err = w.d.OpenSession(); err != nil {
			t.Fatal(err)
		}
	}
	if sess.ID != tc.id {
		t.Fatalf("opened session %d, want %d", sess.ID, tc.id)
	}
	c := w.addClient(sess, netem.Addr{Host: 1, Port: 1000})
	w.sched.RunFor(2 * time.Second) // connect: the first frame is sequence number 0
	if tc.restore {
		w.restart()
		if sess = w.d.Lookup(tc.id); sess == nil {
			t.Fatalf("session %d was not restored", tc.id)
		}
		w.sched.RunFor(2 * time.Second) // the client hears the restored daemon
	}
	w.sched.RunFor(tc.idle)
	var next uint64
	sess.Do(func(srv *core.Server) { next = srv.Transport().Connection().NextSeq() })
	var sent [][]byte
	w.tap = func(_ netem.Addr, wire []byte) { sent = append(sent, bytes.Clone(wire)) }
	c.typeString("a")
	w.sched.RunFor(300 * time.Millisecond)

	const (
		timestamps = 4  // send time and timestamp reply, 16 bits each
		tag        = 16 // OCB authentication tag
		fragHeader = 1  // uvarint(num<<1 | final): fragment 0, final
		flag       = 1  // protocol version 4 << 1 | not compressed
	)
	// The envelope is the session id in cleartext; the sequence header is
	// the direction bit and sequence number, the OCB nonce.
	fixed := tc.envelope + tc.seqHeader + timestamps + tag + fragHeader + flag
	want := []struct {
		what string
		// body is the plaintext after the timestamps: fragment header, flag
		// byte, instruction header, then the screen diff (statesync.Complete:
		// width 80 'P', height 24, echo-ack count, then the frame).
		body string
	}{
		// The next state from the acknowledged baseline (ThrowawayNum);
		// AckNum is the keystroke's state at the client. The frame is the
		// one character.
		{"echo of a", "\x01\x08" + tc.inst[0] + "P\x18\x00" + "a"},
		// The state after that from the echo's state, which the client has
		// not acknowledged yet (ThrowawayNum unmoved). The frame is empty:
		// only the echo-ack count moved.
		{"echo-ack frame", "\x01\x08" + tc.inst[1] + "P\x18\x01"},
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
		if err != nil || gotID != tc.id || len(wire)-len(inner) != tc.envelope {
			t.Fatalf("%s: envelope %d of %d B, %v", wt.what, gotID, len(wire)-len(inner), err)
		}
		_, _, sealed, err := sspcrypto.ParseSeqHeader(inner)
		if err != nil || len(inner)-len(sealed) != tc.seqHeader {
			t.Fatalf("%s: sequence header of %d B, %v; want %d B", wt.what, len(inner)-len(sealed), err, tc.seqHeader)
		}
		dir, seq, pt, err := crypt.Decrypt(inner)
		if err != nil || dir != sspcrypto.ToClient || seq != next+uint64(i) {
			t.Fatalf("%s: direction %v, sequence number %d, %v; want sequence number %d", wt.what, dir, seq, err, next+uint64(i))
		}
		if body := string(pt[timestamps:]); body != wt.body {
			t.Fatalf("%s (sequence number %d): plaintext after the timestamps is %q, want %q", wt.what, seq, body, wt.body)
		}
		if diff := len(wt.body) - fragHeader - flag; len(wire) != fixed+diff {
			t.Fatalf("%s: %d bytes on the wire, want %d fixed + %d of instruction", wt.what, len(wire), fixed, diff)
		}
	}
	return len(sent[0]), len(sent[1])
}

package network

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
)

var t0 = time.Date(2012, 4, 1, 0, 0, 0, 0, time.UTC)

func pair(t *testing.T, clock simclock.Clock) (client, server *Connection) {
	t.Helper()
	key := sspcrypto.Key{9, 9, 9}
	var err error
	client, err = NewConnection(Config{Direction: sspcrypto.ToServer, Key: key, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	server, err = NewConnection(Config{Direction: sspcrypto.ToClient, Key: key, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	return client, server
}

func TestPayloadRoundTrip(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	client, server := pair(t, clk)
	wire, err := client.NewPacket([]byte("keys"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := server.Receive(wire, netem.Addr{Host: 1, Port: 2})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "keys" {
		t.Fatalf("payload = %q", got)
	}
}

func TestSequenceNumbersIncrement(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	client, _ := pair(t, clk)
	if client.NextSeq() != 0 {
		t.Fatal("fresh connection should start at seq 0")
	}
	client.NewPacket(nil)
	client.NewPacket(nil)
	if client.NextSeq() != 2 {
		t.Fatalf("NextSeq = %d", client.NextSeq())
	}
}

func TestStaleAndReplayedPacketsDropped(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	client, server := pair(t, clk)
	w1, _ := client.NewPacket([]byte("one"))
	w2, _ := client.NewPacket([]byte("two"))
	src := netem.Addr{Host: 1}
	if _, err := server.Receive(w2, src); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Receive(w1, src); err != ErrOldPacket {
		t.Fatalf("reordered-older packet: err = %v, want ErrOldPacket", err)
	}
	if _, err := server.Receive(w2, src); err != ErrOldPacket {
		t.Fatalf("replayed packet: err = %v, want ErrOldPacket", err)
	}
}

func TestOwnDirectionRejected(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	client, _ := pair(t, clk)
	wire, _ := client.NewPacket(nil)
	if _, err := client.Receive(wire, netem.Addr{}); err != ErrOwnDirection {
		t.Fatalf("err = %v, want ErrOwnDirection", err)
	}
}

func TestForgedPacketRejected(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	client, server := pair(t, clk)
	wire, _ := client.NewPacket([]byte("x"))
	wire[len(wire)-1] ^= 1
	if _, err := server.Receive(wire, netem.Addr{}); err != sspcrypto.ErrAuth {
		t.Fatalf("err = %v, want ErrAuth", err)
	}
	if _, heard := server.LastHeard(); heard {
		t.Fatal("forged packet counted as heard")
	}
}

func TestRoamingUpdatesTarget(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	client, server := pair(t, clk)
	a1 := netem.Addr{Host: 1, Port: 10}
	a2 := netem.Addr{Host: 2, Port: 20}
	w1, _ := client.NewPacket(nil)
	w2, _ := client.NewPacket(nil)
	w3, _ := client.NewPacket(nil)
	server.Receive(w1, a1)
	if got, _ := server.RemoteAddr(); got != a1 {
		t.Fatalf("target = %v", got)
	}
	server.Receive(w2, a2)
	if got, _ := server.RemoteAddr(); got != a2 {
		t.Fatalf("after roam target = %v", got)
	}
	if server.RemoteAddrChanges() != 1 {
		t.Fatalf("roam count = %d", server.RemoteAddrChanges())
	}
	// A stale packet from the old address must NOT steal the target back.
	if _, err := server.Receive(w1, a1); err != ErrOldPacket {
		t.Fatal("stale packet accepted")
	}
	if got, _ := server.RemoteAddr(); got != a2 {
		t.Fatal("stale packet moved the reply target")
	}
	_ = w3
}

func TestClientDoesNotRoamServer(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	client, server := pair(t, clk)
	serverAddr := netem.Addr{Host: 5, Port: 50}
	client.SetRemoteAddr(serverAddr)
	w, _ := server.NewPacket(nil)
	client.Receive(w, netem.Addr{Host: 6, Port: 60})
	if got, _ := client.RemoteAddr(); got != serverAddr {
		t.Fatalf("client re-targeted to %v; only the server side roams", got)
	}
}

func TestRTTEstimation(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	client, server := pair(t, clk)
	src := netem.Addr{Host: 1}
	// client -> server (50ms one way), server replies immediately,
	// reply arrives 50ms later: RTT = 100ms.
	w, _ := client.NewPacket(nil)
	clk.RunFor(50 * time.Millisecond)
	server.Receive(w, src)
	r, _ := server.NewPacket(nil)
	clk.RunFor(50 * time.Millisecond)
	client.Receive(r, netem.Addr{Host: 2})
	if !client.HaveRTT() {
		t.Fatal("no RTT sample")
	}
	if got := client.SRTT(0); got < 95*time.Millisecond || got > 105*time.Millisecond {
		t.Fatalf("SRTT = %v, want ~100ms", got)
	}
}

func TestTimestampReplyAdjustedForHoldTime(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	client, server := pair(t, clk)
	src := netem.Addr{Host: 1}
	w, _ := client.NewPacket(nil)
	clk.RunFor(50 * time.Millisecond)
	server.Receive(w, src)
	// Server delays its ack 300ms (like a delayed ACK would).
	clk.RunFor(300 * time.Millisecond)
	r, _ := server.NewPacket(nil)
	clk.RunFor(50 * time.Millisecond)
	client.Receive(r, netem.Addr{Host: 2})
	// Despite 300ms hold, measured RTT must reflect only path delay.
	if got := client.SRTT(0); got < 95*time.Millisecond || got > 110*time.Millisecond {
		t.Fatalf("SRTT = %v, want ~100ms despite 300ms hold", got)
	}
}

// TestStaleTimestampReplyIgnored: a server stopped for 20 s with the
// client's datagram queued in its socket replies as soon as it resumes.
// That 20 s sample measures the stop, not the path, so SRTT and RTO keep
// the 50 ms exchange's values; a sample just under 5 s is still folded.
func TestStaleTimestampReplyIgnored(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	client, server := pair(t, clk)
	src := netem.Addr{Host: 1}
	exchange := func(transit time.Duration) {
		w, _ := client.NewPacket(nil)
		clk.RunFor(transit)
		server.Receive(w, src)
		r, _ := server.NewPacket(nil)
		clk.RunFor(25 * time.Millisecond)
		client.Receive(r, netem.Addr{Host: 2})
	}
	exchange(25 * time.Millisecond)
	if got := client.SRTT(0); got != 50*time.Millisecond {
		t.Fatalf("SRTT after a 50ms exchange = %v, want 50ms", got)
	}
	if got := client.RTO(); got != 150*time.Millisecond {
		t.Fatalf("RTO after a 50ms exchange = %v, want 150ms", got)
	}
	// The server is stopped for 20 s while the datagram waits in its socket.
	exchange(20*time.Second + 25*time.Millisecond)
	if got := client.SRTT(0); got != 50*time.Millisecond {
		t.Fatalf("SRTT after a 20s stall = %v, want 50ms (sample ignored)", got)
	}
	if got := client.RTO(); got != 150*time.Millisecond {
		t.Fatalf("RTO after a 20s stall = %v, want 150ms (sample ignored)", got)
	}
	// A 4.9 s sample is under the bound: SRTT = 7/8·50 + 1/8·4900 ms.
	exchange(4875 * time.Millisecond)
	if got, want := client.SRTT(0), 656250*time.Microsecond; got != want {
		t.Fatalf("SRTT after a 4.9s sample = %v, want %v (sample folded)", got, want)
	}
}

func TestRTOBounds(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	client, server := pair(t, clk)
	if client.RTO() != DefaultMaxRTO {
		t.Fatalf("pre-sample RTO = %v, want max", client.RTO())
	}
	src := netem.Addr{Host: 1}
	// Near-zero RTT drives RTO to the 50ms floor (not TCP's 1s).
	for i := 0; i < 20; i++ {
		w, _ := client.NewPacket(nil)
		server.Receive(w, src)
		r, _ := server.NewPacket(nil)
		clk.RunFor(time.Millisecond)
		client.Receive(r, netem.Addr{Host: 2})
	}
	if got := client.RTO(); got != DefaultMinRTO {
		t.Fatalf("RTO = %v, want floor %v", got, DefaultMinRTO)
	}
}

func TestRTOCustomFloor(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	key := sspcrypto.Key{1}
	c, err := NewConnection(Config{Direction: sspcrypto.ToServer, Key: key, Clock: clk, MinRTO: time.Second, MaxRTO: 60 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.observeRTT(1)
	if got := c.RTO(); got != time.Second {
		t.Fatalf("RTO = %v, want custom 1s floor", got)
	}
}

func TestRFC6298Smoothing(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	c, _ := NewConnection(Config{Direction: sspcrypto.ToServer, Key: sspcrypto.Key{1}, Clock: clk})
	c.observeRTT(100)
	if c.srtt != 100 || c.rttvar != 50 {
		t.Fatalf("first sample: srtt=%v rttvar=%v", c.srtt, c.rttvar)
	}
	c.observeRTT(200)
	// RTTVAR = 3/4*50 + 1/4*|100-200| = 62.5; SRTT = 7/8*100 + 1/8*200 = 112.5
	if c.rttvar != 62.5 || c.srtt != 112.5 {
		t.Fatalf("second sample: srtt=%v rttvar=%v", c.srtt, c.rttvar)
	}
}

func TestTimestampWraparound(t *testing.T) {
	// Start the clock so that the 16-bit millisecond timestamp wraps
	// between request and reply; the mod-2^16 arithmetic must still
	// produce the right sample.
	start := time.UnixMilli((1 << 16) - 20)
	clk := simclock.NewScheduler(start)
	client, server := pair(t, clk)
	w, _ := client.NewPacket(nil)
	clk.RunFor(30 * time.Millisecond) // crosses the wrap
	server.Receive(w, netem.Addr{Host: 1})
	r, _ := server.NewPacket(nil)
	clk.RunFor(30 * time.Millisecond)
	client.Receive(r, netem.Addr{Host: 2})
	if got := client.SRTT(0); got < 55*time.Millisecond || got > 65*time.Millisecond {
		t.Fatalf("SRTT across wrap = %v, want ~60ms", got)
	}
}

func TestRequiresClock(t *testing.T) {
	if _, err := NewConnection(Config{Direction: sspcrypto.ToServer, Key: sspcrypto.Key{}}); err == nil {
		t.Fatal("NewConnection accepted nil clock")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	key := sspcrypto.Key{9, 9, 9}
	env := &Envelope{ID: 0xfeedface12345678}
	client, err := NewConnection(Config{Direction: sspcrypto.ToServer, Key: key, Clock: clk, Envelope: env})
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewConnection(Config{Direction: sspcrypto.ToClient, Key: key, Clock: clk, Envelope: env})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := client.NewPacket([]byte("keys"))
	if err != nil {
		t.Fatal(err)
	}
	id, inner, err := ParseEnvelope(wire)
	if err != nil || id != env.ID {
		t.Fatalf("ParseEnvelope: id=%#x err=%v", id, err)
	}
	if len(inner) != len(wire)-len(AppendEnvelope(nil, env.ID)) {
		t.Fatalf("inner length %d", len(inner))
	}
	got, err := server.Receive(wire, netem.Addr{Host: 1, Port: 2})
	if err != nil || string(got) != "keys" {
		t.Fatalf("Receive: %q, %v", got, err)
	}
	if server.Overhead() != client.Overhead() || server.Overhead() != len(wire)-len("keys") {
		t.Fatalf("Overhead %d does not match wire expansion %d", server.Overhead(), len(wire)-len("keys"))
	}
}

// TestOverheadTracksSequenceHeader: Overhead is exact for the packet sealed
// next, whose sequence header grows a byte at sequence numbers 64 and 8192.
func TestOverheadTracksSequenceHeader(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	for _, tc := range []struct {
		next uint64
		want int // header, tag and timestamps
	}{
		{0, 1 + 16 + 4},
		{63, 1 + 16 + 4},
		{64, 2 + 16 + 4},
		{8191, 2 + 16 + 4},
		{8192, 3 + 16 + 4},
		{1 << 16, 3 + 16 + 4},
	} {
		c, err := NewConnection(Config{Direction: sspcrypto.ToServer, Clock: clk, Resume: &Resume{NextSeq: tc.next}})
		if err != nil {
			t.Fatal(err)
		}
		over := c.Overhead()
		wire, err := c.NewPacket([]byte("keys"))
		if err != nil {
			t.Fatal(err)
		}
		if over != tc.want || len(wire) != over+len("keys") {
			t.Errorf("seq %d: Overhead %d, %d B on the wire for 4 B; want %d", tc.next, over, len(wire), tc.want)
		}
	}
}

func TestEnvelopeMismatchRejected(t *testing.T) {
	clk := simclock.NewScheduler(t0)
	key := sspcrypto.Key{9, 9, 9}
	client, err := NewConnection(Config{Direction: sspcrypto.ToServer, Key: key, Clock: clk, Envelope: &Envelope{ID: 7}})
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewConnection(Config{Direction: sspcrypto.ToClient, Key: key, Clock: clk, Envelope: &Envelope{ID: 8}})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := client.NewPacket([]byte("keys"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Receive(wire, netem.Addr{}); err != ErrEnvelope {
		t.Fatalf("mismatched envelope: err=%v, want ErrEnvelope", err)
	}
	if _, err := server.Receive(wire[:0], netem.Addr{}); err != ErrEnvelope {
		t.Fatalf("empty envelope: err=%v, want ErrEnvelope", err)
	}
}

func TestNoEnvelopeWireFormatUnchanged(t *testing.T) {
	// A session without an Envelope must produce bytes identical to what it
	// produced before the envelope hook existed: header+ciphertext only,
	// and an enveloped peer must not accept them as enveloped.
	clk := simclock.NewScheduler(t0)
	client, server := pair(t, clk)
	wire, err := client.NewPacket([]byte("keys"))
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != client.Overhead()+len("keys") {
		t.Fatalf("wire length %d, want %d", len(wire), client.Overhead()+len("keys"))
	}
	if got, err := server.Receive(wire, netem.Addr{}); err != nil || string(got) != "keys" {
		t.Fatalf("Receive: %q, %v", got, err)
	}
	// And an enveloped peer must not accept the plain format: the sequence
	// header's leading bytes read as a wrong or malformed session ID.
	envServer, err := NewConnection(Config{
		Direction: sspcrypto.ToClient, Key: sspcrypto.Key{9, 9, 9}, Clock: clk,
		Envelope: &Envelope{ID: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	wire2, err := client.NewPacket([]byte("more"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := envServer.Receive(wire2, netem.Addr{}); err == nil {
		t.Fatal("enveloped endpoint accepted plain-format wire")
	}
}

// NewPacket is AppendPacket into a fresh buffer.
func (c *Connection) NewPacket(payload []byte) ([]byte, error) {
	return c.AppendPacket(nil, payload)
}

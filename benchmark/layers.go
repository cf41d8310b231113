//go:build linux

package main

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"net"
	"runtime/metrics"
	"time"

	"repro/internal/netem"
	"repro/internal/network"
	"repro/internal/ocb"
	"repro/internal/overlay"
	"repro/internal/simclock"
	"repro/internal/sspcrypto"
	"repro/internal/statesync"
	"repro/internal/terminal"
	"repro/internal/udpbatch"
)

// The bottom rungs of the ladder are direct loops over one layer's public
// calls on the workload's captured inputs. Calls that take microseconds get
// one span each; the cipher and datagram layers take a few hundred
// nanoseconds per call, where two clock reads would be a tenth of the
// measurement, so they get one span per loop over all captured sizes.

// allocSample reads the runtime's cumulative heap allocation count. The
// ladder is single-threaded, so one reused sample is safe.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// perOp is a measured loop: nanoseconds and heap allocations per call.
type perOp struct{ ns, allocs float64 }

// minus is a's cost less b's: an open is timed as seal+open minus seal,
// since it needs a freshly sealed datagram every time.
func (a perOp) minus(b perOp) perOp { return perOp{a.ns - b.ns, a.allocs - b.allocs} }

// loop times reps passes of op over sizes inside one span.
func loop(t *tracer, what string, sizes []int, reps int, op func(size int)) perOp {
	n := float64(len(sizes) * reps)
	if n == 0 {
		return perOp{}
	}
	m0 := mallocs()
	t.begin(spCryptoLoop, -1, 0)
	t.note(fmt.Sprintf("%s x%d", what, len(sizes)*reps))
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, size := range sizes {
			op(size)
		}
	}
	ns := float64(time.Since(start))
	t.end()
	return perOp{ns: ns / n, allocs: float64(mallocs()-m0) / n}
}

// cryptoCosts is the per-datagram cost of the three lowest layers on the
// server's side of the wire: sealing what it sent, opening what it received.
type cryptoCosts struct {
	ocbSeal, ocbOpen         perOp
	sspSeal, sspOpen         perOp
	networkSend, networkRecv perOp
}

// measureCrypto runs the ocb, sspcrypto and network rungs over the
// captured wire sizes: out are the datagrams the server sealed, in the
// ones it opened.
func measureCrypto(t *tracer, out, in []int) (cryptoCosts, error) {
	var c cryptoCosts
	key, err := sspcrypto.NewRandomKey()
	if err != nil {
		return c, err
	}
	// Enough passes that each loop covers at least ~20k calls.
	reps := func(sizes []int) int { return 1 + 20000/(len(sizes)+1) }
	const envelope = network.EnvelopeLen

	// ocb: the bare AEAD on the datagram's plaintext length.
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return c, err
	}
	var aead cipher.AEAD
	if aead, err = ocb.New(block); err != nil {
		return c, err
	}
	nonce := make([]byte, aead.NonceSize())
	plain := make([]byte, 1<<16)
	sealed := make([]byte, 0, 1<<16)
	ptLen := func(wire int) int { return max(wire-envelope-8-aead.Overhead(), 0) }
	c.ocbSeal = loop(t, "ocb.Seal", out, reps(out), func(size int) {
		sealed = aead.Seal(sealed[:0], nonce, plain[:ptLen(size)], nil)
	})
	opened := make([]byte, 0, 1<<16)
	c.ocbOpen = loop(t, "ocb.Seal+Open", in, reps(in), func(size int) {
		sealed = aead.Seal(sealed[:0], nonce, plain[:ptLen(size)], nil)
		opened, _ = aead.Open(opened[:0], nonce, sealed, nil)
	}).minus(loop(t, "ocb.Seal(in sizes)", in, reps(in), func(size int) {
		sealed = aead.Seal(sealed[:0], nonce, plain[:ptLen(size)], nil)
	}))

	// sspcrypto: sequence header, nonce derivation and the AEAD.
	sess, err := sspcrypto.NewSession(key)
	if err != nil {
		return c, err
	}
	seq := uint64(0)
	c.sspSeal = loop(t, "sspcrypto.SealAppend", out, reps(out), func(size int) {
		seq++
		sealed, _ = sess.SealAppend(sealed[:0], sspcrypto.ToClient, seq, plain[:ptLen(size)])
	})
	c.sspOpen = loop(t, "sspcrypto.SealAppend+Decrypt", in, reps(in), func(size int) {
		seq++
		sealed, _ = sess.SealAppend(sealed[:0], sspcrypto.ToServer, seq, plain[:ptLen(size)])
		sess.Decrypt(sealed)
	}).minus(loop(t, "sspcrypto.SealAppend(in sizes)", in, reps(in), func(size int) {
		seq++
		sealed, _ = sess.SealAppend(sealed[:0], sspcrypto.ToServer, seq, plain[:ptLen(size)])
	}))

	// network: timestamps, envelope, replay floor and roaming on top.
	clock := simclock.NewScheduler(simStart)
	env := &network.Envelope{ID: 1}
	srv, err := network.NewConnection(network.Config{Direction: sspcrypto.ToClient, Key: key, Clock: clock, Envelope: env})
	if err != nil {
		return c, err
	}
	cli, err := network.NewConnection(network.Config{Direction: sspcrypto.ToServer, Key: key, Clock: clock, Envelope: env})
	if err != nil {
		return c, err
	}
	payloadLen := func(wire int) int { return max(wire-srv.Overhead(), 0) }
	addr := netem.Addr{Host: 1, Port: 1}
	c.networkSend = loop(t, "network.AppendPacket", out, reps(out), func(size int) {
		sealed, _ = srv.AppendPacket(sealed[:0], plain[:payloadLen(size)])
	})
	c.networkRecv = loop(t, "network.AppendPacket+Receive", in, reps(in), func(size int) {
		sealed, _ = cli.AppendPacket(sealed[:0], plain[:payloadLen(size)])
		srv.Receive(sealed, addr)
	}).minus(loop(t, "network.AppendPacket(in sizes)", in, reps(in), func(size int) {
		sealed, _ = cli.AppendPacket(sealed[:0], plain[:payloadLen(size)])
	}))
	return c, nil
}

// screenCosts is the statesync and terminal rungs, per keystroke and per
// frame (the replay mints one frame per keystroke, as the open-loop
// workloads do live).
type screenCosts struct {
	keys                              int
	emuWrite, frameDiff, frameApply   float64 // terminal, ns
	terminalAllocs                    float64 // per keystroke
	stateDiff, stateApply, stateClone float64 // statesync.Complete, ns per frame
	userDiff, userApply               float64 // statesync.UserStream, ns per keystroke
	overlayPredict                    float64 // ns per keystroke
}

// measureScreens replays each ladder session's host output through the
// terminal and statesync layers directly.
func measureScreens(w *workload, seed int64, t *tracer) screenCosts {
	var c screenCosts
	var allocs uint64
	for idx := 0; idx < w.ladderSessions; idx++ {
		ctx := &simCtx{t: t, session: idx}
		app := &markerApp{inner: w.newApp(seed, idx)}
		ks := w.newKeyStream(seed, idx)

		// terminal: the server's emulator, the frame writer diffing it
		// against the previous frame's snapshot, and the client's emulator
		// applying the frame.
		srvEmu := terminal.NewEmulator(w.w, w.h)
		srvEmu.Framebuffer().SetScrollbackLimit(-1)
		cliEmu := terminal.NewEmulator(w.w, w.h)
		// statesync: the same, as the synchronized object does it.
		live := statesync.NewComplete(w.w, w.h)
		live.Framebuffer().SetScrollbackLimit(-1)
		remote := statesync.NewComplete(w.w, w.h)
		start := app.Start()
		srvEmu.Write(start)
		live.Terminal().Write(start)
		var fw terminal.FrameWriter
		prev := srvEmu.Framebuffer().Clone()
		frame := fw.AppendFrame(nil, false, nil, prev)
		cliEmu.Write(frame)
		snap := live.Clone()
		diff := live.AppendDiff(nil, statesync.NewComplete(w.w, w.h))
		remote.Apply(diff)

		// The user-input stream, client to server.
		user, userSent, userRemote := statesync.NewUserStream(), statesync.NewUserStream(), statesync.NewUserStream()
		var userDiff []byte
		// The prediction engine, fed the same keystrokes and echoes.
		clock := simclock.NewScheduler(simStart)
		engine := overlay.NewEngine(clock, overlay.Always)

		for k := 1; k <= w.ladderKeys; k++ {
			ctx.key = k
			data := ks.next()
			out, _ := app.Input(data)
			c.keys++

			m0 := mallocs()
			ctx.begin(spEmuWrite)
			srvEmu.Write(out)
			ctx.end()
			ctx.begin(spFrameDiff)
			frame = fw.AppendFrame(frame[:0], true, prev, srvEmu.Framebuffer())
			ctx.end()
			ctx.begin(spFrameApply)
			cliEmu.Write(frame)
			ctx.end()
			allocs += mallocs() - m0
			prev = srvEmu.Framebuffer().CloneInto(prev)

			live.Terminal().Write(out)
			ctx.begin(spStateDiff)
			diff = live.AppendDiff(diff[:0], snap)
			ctx.end()
			ctx.begin(spStateApply)
			remote.Apply(diff)
			ctx.end()
			ctx.begin(spStateClone)
			next := live.Clone()
			ctx.end()
			snap.Recycle()
			snap = next

			ctx.begin(spUserDiff)
			user.PushBytes(data)
			userDiff = user.AppendDiff(userDiff[:0], userSent)
			ctx.end()
			ctx.begin(spUserApply)
			userRemote.Apply(userDiff)
			ctx.end()
			userSent = user.Clone()

			seq := uint64(k)
			engine.SetLocalFrameSent(seq)
			ctx.begin(spOverlay)
			engine.NewUserInput(seq, data, cliEmu.Framebuffer())
			engine.Cull(cliEmu.Framebuffer())
			shown := cliEmu.Framebuffer().Clone()
			engine.Apply(shown)
			ctx.end()
			engine.SetLocalFrameAcked(seq)
			engine.SetLocalFrameLateAcked(seq)
			clock.RunFor(100 * time.Millisecond)
		}
	}
	n := float64(c.keys)
	perKey := func(name spanName) float64 { return float64(t.total[name]) / n }
	c.emuWrite, c.frameDiff, c.frameApply = perKey(spEmuWrite), perKey(spFrameDiff), perKey(spFrameApply)
	c.stateDiff, c.stateApply, c.stateClone = perKey(spStateDiff), perKey(spStateApply), perKey(spStateClone)
	c.userDiff, c.userApply, c.overlayPredict = perKey(spUserDiff), perKey(spUserApply), perKey(spOverlay)
	c.terminalAllocs = float64(allocs) / n
	return c
}

// sockCosts is one udpbatch rung on a loopback pair.
type sockCosts struct {
	available                   bool
	writeNs, readNs, traversals float64 // per datagram
}

// rungs are the udpbatch provider names, in ladder order, with the name
// each is reported under.
var rungs = []struct{ provider, metric string }{
	{"loop", "loop"}, {"mmsg", "mmsg"}, {"gso", "gso"}, {"uring", "uring"},
}

// maxBursts bounds how many captured bursts each rung replays.
const maxBursts = 400

// measureSocket replays the workload's burst shape through one provider
// rung on a loopback socket pair: the egress sweeps through WriteBatch, the
// ingress batches through ReadBatch, each timed per call. The peer is a
// plain socket that absorbs and originates the datagrams untimed.
func measureSocket(t *tracer, provider string, outBursts, inBursts [][]int) (sockCosts, error) {
	var c sockCosts
	loopback := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	srvSock, err := net.ListenUDP("udp4", loopback)
	if err != nil {
		return c, err
	}
	bc, err := udpbatch.NewUDPConnProvider(srvSock, provider)
	if err != nil {
		srvSock.Close()
		return c, nil // this kernel lacks the rung: reported as unavailable
	}
	closeConn := func() {
		if cl, ok := bc.(interface{ Close() error }); ok {
			cl.Close()
		} else {
			srvSock.Close()
		}
	}
	defer closeConn()
	// A lost datagram must not hang a provider whose reads ignore socket
	// deadlines: closing the connection unblocks it.
	watchdog := time.AfterFunc(20*time.Second, closeConn)
	defer watchdog.Stop()
	peer, err := net.ListenUDP("udp4", loopback)
	if err != nil {
		return c, err
	}
	defer peer.Close()
	peer.SetReadBuffer(4 << 20)
	srvSock.SetReadBuffer(4 << 20)
	peerAddr, _ := udpbatch.CompressUDPAddr(peer.LocalAddr().(*net.UDPAddr))
	srvAddr := srvSock.LocalAddr().(*net.UDPAddr)
	c.available = true

	payload := make([]byte, 1<<16)
	scratch := make([]byte, 1<<16)
	tc, hasTC := bc.(udpbatch.TraversalCounter)
	var trav0 int64
	if hasTC {
		in, out := tc.Traversals()
		trav0 = in + out
	}
	dgrams := 0

	// Egress: one WriteBatch sweep per captured burst.
	var msgs []udpbatch.Message
	wrote := 0
	for i, burst := range outBursts {
		if i == maxBursts {
			break
		}
		msgs = msgs[:0]
		for _, size := range burst {
			msgs = append(msgs, udpbatch.Message{Buf: payload[:size], Addr: peerAddr})
		}
		for off := 0; off < len(msgs); {
			t.begin(spSockWrite, -1, i)
			n, err := bc.WriteBatch(msgs[off:])
			t.end()
			if err != nil {
				return c, fmt.Errorf("udpbatch %s: WriteBatch: %w", provider, err)
			}
			if n == 0 {
				return c, fmt.Errorf("udpbatch %s: WriteBatch made no progress", provider)
			}
			off += n
		}
		wrote += len(burst)
		for range burst {
			peer.SetReadDeadline(time.Now().Add(time.Second))
			if _, _, err := peer.ReadFromUDP(scratch); err != nil {
				return c, fmt.Errorf("udpbatch %s: peer lost a datagram: %w", provider, err)
			}
		}
	}
	if wrote > 0 {
		c.writeNs = float64(t.total[spSockWrite]) / float64(wrote)
	}
	dgrams += wrote

	// Ingress: the peer sends a captured batch, the rung reads it.
	slot := udpbatch.ReadSlotSize(bc, udpbatch.DefaultBufSize)
	reads := make([]udpbatch.Message, udpbatch.DefaultBatch)
	for i := range reads {
		reads[i].Buf = make([]byte, 0, slot)
	}
	read := 0
	for i, burst := range inBursts {
		if i == maxBursts {
			break
		}
		for _, size := range burst {
			if _, err := peer.WriteToUDP(payload[:size], srvAddr); err != nil {
				return c, err
			}
		}
		for got := 0; got < len(burst); {
			srvSock.SetReadDeadline(time.Now().Add(time.Second))
			t.begin(spSockRead, -1, i)
			n, err := bc.ReadBatch(reads)
			t.end()
			if err != nil {
				return c, fmt.Errorf("udpbatch %s: ReadBatch: %w", provider, err)
			}
			got += n
		}
		read += len(burst)
	}
	if read > 0 {
		c.readNs = float64(t.total[spSockRead]) / float64(read)
	}
	dgrams += read
	c.traversals = 1
	if hasTC && dgrams > 0 {
		in, out := tc.Traversals()
		c.traversals = float64(in+out-trav0) / float64(dgrams)
	}
	return c, nil
}

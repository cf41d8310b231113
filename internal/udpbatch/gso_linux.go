//go:build linux && (amd64 || arm64)

package udpbatch

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"repro/internal/netem"
)

// Segmentation-offload provider: the same recvmmsg/sendmmsg machinery as
// the mmsg path, but moving *coalesced super-datagrams* so the kernel
// traverses the UDP stack once per peer-train instead of once per
// datagram.
//
// Egress: WriteBatch scans the batch for maximal same-peer runs of
// equal-length datagrams (SegmentRun — the last segment of a run may be
// shorter, closing it) and sends each run as ONE msghdr whose iovecs are
// the run's payloads plus a UDP_SEGMENT cmsg carrying the segment size;
// the kernel linearizes and resegments on the wire, byte-identical to
// sending the datagrams individually. Up to DefaultBatch runs ride one
// sendmmsg.
//
// Ingress: UDP_GRO is enabled on the socket, so the kernel hands over
// same-peer trains as single super-datagrams with the segment size in a
// cmsg. ReadBatch reads into provider-owned 64 KiB super-buffers and
// splits every super-datagram back into per-message slots at exact
// original boundaries (groSplitter, unit-tested against synthetic
// coalesced buffers). Reads that outsize the caller's slots carry over to
// the next call; nothing is dropped.

const (
	solUDP        = 17  // SOL_UDP
	optUDPSegment = 103 // UDP_SEGMENT
	optUDPGRO     = 104 // UDP_GRO

	// groReadSlots is how many super-buffers one recvmmsg fills: each can
	// carry a whole coalesced train, so a small vector already moves
	// hundreds of datagrams per syscall without pinning megabytes.
	groReadSlots = GROReadSlots

	// gsoWriteMsgs bounds how many messages one WriteBatch call may
	// consume (the flattened iovec scratch). The partial-write contract
	// covers larger batches.
	gsoWriteMsgs = GSOBatch
)

// cmsgHdr mirrors struct cmsghdr on 64-bit Linux.
type cmsgHdr struct {
	length uint64
	level  int32
	typ    int32
}

const cmsgHdrLen = 16 // unsafe.Sizeof(cmsgHdr{})

// groSplitter owns the super-buffers one recvmmsg fills and deals their
// segments back out as individual datagrams. It is pure state — no
// syscalls — so the boundary-reconstruction logic is unit-testable
// without a GRO-capable kernel.
type groSplitter struct {
	bufs []([]byte) // accepted super-datagrams, resliced to their wire length
	segs []int      // GRO segment size per super (0 = not coalesced)
	srcs []netem.Addr
	cnt  int // supers held
	cur  int // super currently being drained
	off  int // byte offset within it
}

func newGROSplitter(slots int) groSplitter {
	return groSplitter{
		bufs: make([][]byte, slots),
		segs: make([]int, slots),
		srcs: make([]netem.Addr, slots),
	}
}

func (s *groSplitter) reset() { s.cnt, s.cur, s.off = 0, 0, 0 }

// push records one received super-datagram for draining.
func (s *groSplitter) push(buf []byte, seg int, src netem.Addr) {
	s.bufs[s.cnt], s.segs[s.cnt], s.srcs[s.cnt] = buf, seg, src
	s.cnt++
}

func (s *groSplitter) pending() bool { return s.cur < s.cnt }

// drain copies pending segments into caller slots, reproducing the
// original datagram boundaries exactly: every segment is seg bytes except
// a shorter final one. Returns how many slots it filled; segments that
// outnumber the slots stay pending for the next call.
func (s *groSplitter) drain(msgs []Message) int {
	out := 0
	for s.cur < s.cnt && out < len(msgs) {
		buf := s.bufs[s.cur]
		if len(buf) == 0 {
			// A zero-length datagram is legal UDP: deliver one empty message.
			msgs[out].Buf = msgs[out].Buf[:0]
			msgs[out].Addr = s.srcs[s.cur]
			out++
			s.cur++
			s.off = 0
			continue
		}
		adv := len(buf) - s.off
		if seg := s.segs[s.cur]; seg > 0 && seg < adv {
			adv = seg
		}
		n := adv
		if c := cap(msgs[out].Buf); c < n {
			n = c // undersized caller slot: kernel-style truncation
		}
		msgs[out].Buf = msgs[out].Buf[:n]
		copy(msgs[out].Buf, buf[s.off:s.off+n])
		msgs[out].Addr = s.srcs[s.cur]
		out++
		s.off += adv
		if s.off >= len(buf) {
			s.cur++
			s.off = 0
		}
	}
	if s.cur >= s.cnt {
		s.reset()
	}
	return out
}

// gsoConn is the segmentation-offload implementation of Conn.
type gsoConn struct {
	c  *net.UDPConn
	rc syscall.RawConn
	v6 bool

	// Read scratch (single reader goroutine).
	split  groSplitter
	rstore [][]byte // groReadSlots × MaxDatagram provider-owned storage
	rhdrs  []mmsghdr
	riovs  []syscall.Iovec
	rnames [][sockaddrBuf]byte
	rctrls [][8]uint64 // 64-byte aligned cmsg space per message

	// Write scratch, guarded by wmu.
	wmu    sync.Mutex
	whdrs  []mmsghdr // one per run
	wiovs  []syscall.Iovec
	wnames [][sockaddrBuf]byte
	wctrls [][3]uint64 // CMSG_SPACE(sizeof(uint16)) = 24, 8-aligned
	wruns  []int       // messages consumed by each msghdr

	// Persistent poller callbacks (operands via fields — 0 allocs/batch).
	readFn, writeFn func(fd uintptr) bool
	rN, rGot        int
	rErr            syscall.Errno
	wN, wSent       int
	wErr            syscall.Errno

	// Stack traversals: one per super-datagram moved, not per datagram.
	rxTrav, txTrav atomic.Int64
}

// newGSOUDP builds the GSO/GRO connection for c, failing on kernels
// without UDP_SEGMENT/UDP_GRO.
func newGSOUDP(c *net.UDPConn) (Conn, error) {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	g := &gsoConn{
		c:      c,
		rc:     rc,
		split:  newGROSplitter(groReadSlots),
		rstore: make([][]byte, groReadSlots),
		rhdrs:  make([]mmsghdr, groReadSlots),
		riovs:  make([]syscall.Iovec, groReadSlots),
		rnames: make([][sockaddrBuf]byte, groReadSlots),
		rctrls: make([][8]uint64, groReadSlots),
		whdrs:  make([]mmsghdr, DefaultBatch),
		wiovs:  make([]syscall.Iovec, gsoWriteMsgs),
		wnames: make([][sockaddrBuf]byte, DefaultBatch),
		wctrls: make([][3]uint64, DefaultBatch),
		wruns:  make([]int, DefaultBatch),
	}
	for i := range g.rstore {
		g.rstore[i] = make([]byte, MaxDatagram)
	}
	var optErr error
	cerr := rc.Control(func(fd uintptr) {
		// Capability probe doubles as setup. UDP_GRO=1 turns on ingress
		// coalescing (the provider's read side requires it); setting
		// UDP_SEGMENT to 0 proves the egress facility exists without
		// changing behavior — the real segment size rides per-send cmsgs.
		if err := syscall.SetsockoptInt(int(fd), solUDP, optUDPGRO, 1); err != nil {
			optErr = err
			return
		}
		if err := syscall.SetsockoptInt(int(fd), solUDP, optUDPSegment, 0); err != nil {
			optErr = err
			return
		}
		sa, err := syscall.Getsockname(int(fd))
		if err != nil {
			optErr = err
			return
		}
		_, g.v6 = sa.(*syscall.SockaddrInet6)
	})
	if cerr != nil {
		return nil, cerr
	}
	if optErr != nil {
		return nil, fmt.Errorf("udpbatch: gso/gro unavailable: %w", optErr)
	}
	// Transient-errno discipline matches the mmsg path (see mmsg_linux.go):
	// EAGAIN parks, EINTR retries, kernel pressure and the ICMP family
	// yield an empty success the caller retries.
	g.readFn = func(fd uintptr) bool {
		for {
			r, _, e := syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&g.rhdrs[0])), uintptr(g.rN),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			switch e {
			case syscall.EAGAIN:
				return false
			case syscall.EINTR:
				continue
			case syscall.ENOMEM, syscall.ENOBUFS,
				syscall.ECONNREFUSED, syscall.EHOSTUNREACH,
				syscall.ENETUNREACH, syscall.ETIMEDOUT, syscall.EPROTO:
				g.rErr, g.rGot = 0, 0
				return true
			}
			if e != 0 {
				r = 0
			}
			g.rErr, g.rGot = e, int(r)
			return true
		}
	}
	g.writeFn = func(fd uintptr) bool {
		for {
			r, _, e := syscall.Syscall6(sysSendmmsg, fd,
				uintptr(unsafe.Pointer(&g.whdrs[0])), uintptr(g.wN),
				uintptr(syscall.MSG_DONTWAIT), 0, 0)
			switch e {
			case syscall.EAGAIN:
				return false
			case syscall.EINTR:
				continue
			}
			if e != 0 {
				r = 0
			}
			g.wErr, g.wSent = e, int(r)
			return true
		}
	}
	return g, nil
}

func (g *gsoConn) BatchCap() int { return gsoWriteMsgs }

func (g *gsoConn) ProviderName() string { return "gso" }

// ReadSlotSize: a GRO super-datagram (or a single oversized-but-legitimate
// datagram) can reach the UDP payload ceiling; caller slots must fit it.
func (g *gsoConn) ReadSlotSize() int { return MaxDatagram }

// Traversals reports cumulative UDP-stack traversals: one per
// super-datagram each direction.
func (g *gsoConn) Traversals() (in, out int64) {
	return g.rxTrav.Load(), g.txTrav.Load()
}

func (g *gsoConn) Close() error { return g.c.Close() }

// ReadBatch first drains segments carried over from the previous syscall,
// then performs one recvmmsg into the provider's super-buffers and splits
// the result into caller slots.
func (g *gsoConn) ReadBatch(msgs []Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	for i := range msgs {
		if cap(msgs[i].Buf) == 0 {
			return 0, errors.New("udpbatch: read slot without buffer capacity")
		}
	}
	if g.split.pending() {
		if n := g.split.drain(msgs); n > 0 {
			return n, nil
		}
	}
	for {
		for i := 0; i < groReadSlots; i++ {
			buf := g.rstore[i]
			g.riovs[i] = syscall.Iovec{Base: &buf[0]}
			g.riovs[i].SetLen(len(buf))
			g.rhdrs[i] = mmsghdr{hdr: syscall.Msghdr{
				Name:    &g.rnames[i][0],
				Namelen: sockaddrBuf,
				Iov:     &g.riovs[i],
				Iovlen:  1,
				Control: (*byte)(unsafe.Pointer(&g.rctrls[i][0])),
			}}
			g.rhdrs[i].hdr.SetControllen(int(unsafe.Sizeof(g.rctrls[i])))
		}
		g.rN, g.rGot, g.rErr = groReadSlots, 0, 0
		err := g.rc.Read(g.readFn)
		if err != nil {
			return 0, err
		}
		if g.rErr != 0 {
			return 0, g.rErr
		}
		if g.rGot == 0 {
			return 0, nil // transient-pressure yield
		}
		g.split.reset()
		for i := 0; i < g.rGot; i++ {
			addr, ok := decodeName(&g.rnames[i])
			if !ok {
				continue // undecodable source, same filter as the mmsg path
			}
			seg := groSegSize(&g.rctrls[i], int(g.rhdrs[i].hdr.Controllen))
			g.split.push(g.rstore[i][:g.rhdrs[i].n], seg, addr)
		}
		if g.split.cnt > 0 {
			g.rxTrav.Add(int64(g.split.cnt))
			return g.split.drain(msgs), nil
		}
		// Whole vector filtered: read again rather than yielding an empty
		// success the caller would mistake for kernel pressure.
	}
}

// groSegSize walks a received control buffer for the UDP_GRO cmsg and
// returns the coalesced segment size (0 when the read is a single
// ordinary datagram).
func groSegSize(ctrl *[8]uint64, n int) int {
	if max := int(unsafe.Sizeof(*ctrl)); n > max {
		n = max
	}
	off := 0
	for off+cmsgHdrLen <= n {
		h := (*cmsgHdr)(unsafe.Add(unsafe.Pointer(ctrl), off))
		if h.length < cmsgHdrLen {
			break
		}
		if h.level == solUDP && h.typ == optUDPGRO && off+cmsgHdrLen+4 <= n {
			return int(*(*int32)(unsafe.Add(unsafe.Pointer(ctrl), off+cmsgHdrLen)))
		}
		off += int((h.length + 7) &^ 7)
	}
	return 0
}

// WriteBatch groups the batch into same-peer segment runs and transmits
// one msghdr per run — one stack traversal per train — with one sendmmsg
// per call. It consumes one syscall's worth and returns short (the
// partial-write contract) so syscall accounting stays honest; a non-nil
// error reports that msgs[n] failed (the caller drops it and the rest of
// its run regroups on retry).
func (g *gsoConn) WriteBatch(msgs []Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	g.wmu.Lock()
	defer g.wmu.Unlock()
	hdrs, used := 0, 0
	var slotErr error
	for hdrs < len(g.whdrs) && used < len(msgs) && used < len(g.wiovs) {
		if len(msgs[used].Buf) == 0 {
			// Same contract as the mmsg path: the valid prefix transmits
			// first, then the empty slot surfaces as the failing datagram.
			slotErr = errors.New("udpbatch: empty write slot")
			break
		}
		run := SegmentRun(msgs[used:])
		if used+run > len(g.wiovs) {
			run = len(g.wiovs) - used
		}
		seg := len(msgs[used].Buf)
		for k := 0; k < run; k++ {
			g.wiovs[used+k] = syscall.Iovec{Base: &msgs[used+k].Buf[0]}
			g.wiovs[used+k].SetLen(len(msgs[used+k].Buf))
		}
		nameLen := encodeName(&g.wnames[hdrs], msgs[used].Addr, g.v6)
		g.whdrs[hdrs] = mmsghdr{hdr: syscall.Msghdr{
			Name:    &g.wnames[hdrs][0],
			Namelen: nameLen,
			Iov:     &g.wiovs[used],
			Iovlen:  uint64(run),
		}}
		if run > 1 {
			c := &g.wctrls[hdrs]
			h := (*cmsgHdr)(unsafe.Pointer(c))
			h.length = cmsgHdrLen + 2 // CMSG_LEN(sizeof(__u16))
			h.level, h.typ = solUDP, optUDPSegment
			*(*uint16)(unsafe.Pointer(uintptr(unsafe.Pointer(c)) + cmsgHdrLen)) = uint16(seg)
			g.whdrs[hdrs].hdr.Control = (*byte)(unsafe.Pointer(c))
			g.whdrs[hdrs].hdr.SetControllen(int(unsafe.Sizeof(*c))) // CMSG_SPACE
		}
		g.wruns[hdrs] = run
		hdrs++
		used += run
	}
	if hdrs == 0 {
		return 0, slotErr
	}
	g.wN, g.wSent, g.wErr = hdrs, 0, 0
	err := g.rc.Write(g.writeFn)
	runtime.KeepAlive(msgs)
	if err != nil {
		return 0, err
	}
	consumed := 0
	for i := 0; i < g.wSent; i++ {
		consumed += g.wruns[i]
	}
	g.txTrav.Add(int64(g.wSent))
	if g.wErr != 0 {
		// The msghdr after the delivered prefix failed; its first datagram
		// is msgs[consumed]. The caller drops it and retries the remainder,
		// which regroups into fresh runs.
		return consumed, g.wErr
	}
	if slotErr != nil && g.wSent == hdrs {
		return consumed, slotErr
	}
	return consumed, nil
}

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
	"time"
	"unsafe"

	"repro/internal/netem"
)

// Completion-based provider on raw io_uring (no dependencies; the syscall
// numbers and ABI structs are spelled out below — identical on amd64 and
// arm64). Two small rings share the one UDP socket:
//
//   - The receive ring runs a single multishot RECVMSG against a
//     registered provided-buffer ring: the kernel keeps posting one
//     completion per datagram into buffers it picks itself, so the
//     steady-state read path is "harvest completions, copy out, return
//     the buffer" — zero syscalls while completions are pending, one
//     blocking io_uring_enter when the queue runs dry.
//   - The send ring turns each WriteBatch sweep into a chain of linked
//     SENDMSG SQEs submitted with one syscall and drained synchronously
//     in the caller, exactly where sendmmsg completions were handled
//     before. IOSQE_IO_LINK keeps completion order equal to
//     submission order, so the first failure cancels the tail and the
//     (n, err) contract — msgs[n] failed, drop it, retry the rest —
//     holds without reordering bookkeeping.
//
// The capability probe is functional: construction stands the rings up
// and round-trips a datagram through both of them on a scratch basis; any
// missing facility (io_uring disabled by sysctl or seccomp, no provided
// buffer rings before 5.19, no multishot recvmsg before 6.0) fails the
// probe, and with it an explicit -udp-provider uring ("auto" does not try
// this provider: see NewUDPConnProvider).

// Raw io_uring ABI.
const (
	sysIOUringSetup    = 425
	sysIOUringEnter    = 426
	sysIOUringRegister = 427

	ioringOffSqRing = 0x0
	ioringOffCqRing = 0x8000000
	ioringOffSqes   = 0x10000000

	ioringEnterGetevents = 1 << 0

	ioringSetupCqsize = 1 << 3
	ioringSetupClamp  = 1 << 4

	ioringFeatSingleMmap = 1 << 0

	ioringOpNop     = 0
	ioringOpSendmsg = 9
	ioringOpRecvmsg = 10

	iosqeIOLink       = 1 << 2
	iosqeBufferSelect = 1 << 5

	ioringRecvMultishot = 1 << 1 // sqe.ioprio flag for OP_RECVMSG

	ioringCqeFBuffer = 1 << 0
	ioringCqeFMore   = 1 << 1

	ioringRegisterPbufRing   = 22
	ioringUnregisterPbufRing = 23
)

type ioSqringOffsets struct {
	head, tail, ringMask, ringEntries, flags, dropped, array, resv1 uint32
	userAddr                                                        uint64
}

type ioCqringOffsets struct {
	head, tail, ringMask, ringEntries, overflow, cqes, flags, resv1 uint32
	userAddr                                                        uint64
}

type ioUringParams struct {
	sqEntries, cqEntries, flags, sqThreadCPU, sqThreadIdle, features, wqFd uint32
	resv                                                                   [3]uint32
	sqOff                                                                  ioSqringOffsets
	cqOff                                                                  ioCqringOffsets
}

// ioUringSqe mirrors struct io_uring_sqe (64 bytes).
type ioUringSqe struct {
	opcode      uint8
	flags       uint8
	ioprio      uint16
	fd          int32
	off         uint64
	addr        uint64
	length      uint32
	opFlags     uint32
	userData    uint64
	bufIndex    uint16 // union: buf_index / buf_group
	personality uint16
	spliceFdIn  int32
	addr3       uint64
	pad2        uint64
}

// ioUringCqe mirrors struct io_uring_cqe (16 bytes).
type ioUringCqe struct {
	userData uint64
	res      int32
	flags    uint32
}

type ioUringBufReg struct {
	ringAddr    uint64
	ringEntries uint32
	bgid        uint16
	flags       uint16
	resv        [3]uint64
}

// ioUringBuf mirrors struct io_uring_buf; entry 0's resv field doubles as
// the ring's shared 16-bit tail.
type ioUringBuf struct {
	addr   uint64
	length uint32
	bid    uint16
	resv   uint16
}

// uring is one mmap'd ring (submission + completion queues).
type uring struct {
	fd          int
	sqMem       []byte
	cqMem       []byte // == sqMem under IORING_FEAT_SINGLE_MMAP
	sqeMem      []byte
	singleMmap  bool
	sqHead      *uint32
	sqTail      *uint32
	sqMask      uint32
	sqArray     []uint32
	sqes        []ioUringSqe
	cqHead      *uint32
	cqTail      *uint32
	cqMask      uint32
	cqes        []ioUringCqe
	sqLocalTail uint32
}

func newRing(entries, cqEntries uint32) (*uring, error) {
	var p ioUringParams
	p.flags = ioringSetupClamp
	if cqEntries > 0 {
		p.flags |= ioringSetupCqsize
		p.cqEntries = cqEntries
	}
	fd, _, e := syscall.Syscall(sysIOUringSetup, uintptr(entries), uintptr(unsafe.Pointer(&p)), 0)
	if e != 0 {
		return nil, fmt.Errorf("io_uring_setup: %w", e)
	}
	r := &uring{fd: int(fd)}
	fail := func(err error) (*uring, error) {
		r.destroy()
		return nil, err
	}
	sqSize := int(p.sqOff.array + p.sqEntries*4)
	cqSize := int(p.cqOff.cqes) + int(p.cqEntries)*int(unsafe.Sizeof(ioUringCqe{}))
	r.singleMmap = p.features&ioringFeatSingleMmap != 0
	if r.singleMmap && cqSize > sqSize {
		sqSize = cqSize
	}
	var err error
	r.sqMem, err = syscall.Mmap(r.fd, ioringOffSqRing, sqSize,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return fail(err)
	}
	if r.singleMmap {
		r.cqMem = r.sqMem
	} else {
		r.cqMem, err = syscall.Mmap(r.fd, ioringOffCqRing, cqSize,
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
		if err != nil {
			return fail(err)
		}
	}
	r.sqeMem, err = syscall.Mmap(r.fd, ioringOffSqes, int(p.sqEntries)*int(unsafe.Sizeof(ioUringSqe{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED|syscall.MAP_POPULATE)
	if err != nil {
		return fail(err)
	}
	r.sqHead = (*uint32)(unsafe.Pointer(&r.sqMem[p.sqOff.head]))
	r.sqTail = (*uint32)(unsafe.Pointer(&r.sqMem[p.sqOff.tail]))
	r.sqMask = *(*uint32)(unsafe.Pointer(&r.sqMem[p.sqOff.ringMask]))
	r.sqArray = unsafe.Slice((*uint32)(unsafe.Pointer(&r.sqMem[p.sqOff.array])), p.sqEntries)
	r.sqes = unsafe.Slice((*ioUringSqe)(unsafe.Pointer(&r.sqeMem[0])), p.sqEntries)
	r.cqHead = (*uint32)(unsafe.Pointer(&r.cqMem[p.cqOff.head]))
	r.cqTail = (*uint32)(unsafe.Pointer(&r.cqMem[p.cqOff.tail]))
	r.cqMask = *(*uint32)(unsafe.Pointer(&r.cqMem[p.cqOff.ringMask]))
	r.cqes = unsafe.Slice((*ioUringCqe)(unsafe.Pointer(&r.cqMem[p.cqOff.cqes])), p.cqEntries)
	r.sqLocalTail = atomic.LoadUint32(r.sqTail)
	return r, nil
}

// push stages one SQE; the caller submits via enter. Callers serialize
// pushes per ring (rsqMu / wmu).
func (r *uring) push(sqe *ioUringSqe) bool {
	head := atomic.LoadUint32(r.sqHead)
	if r.sqLocalTail-head >= uint32(len(r.sqes)) {
		return false
	}
	idx := r.sqLocalTail & r.sqMask
	r.sqes[idx] = *sqe
	r.sqArray[idx] = idx
	r.sqLocalTail++
	atomic.StoreUint32(r.sqTail, r.sqLocalTail)
	return true
}

// enter submits staged SQEs and/or waits for completions.
func (r *uring) enter(toSubmit, minComplete, flags uint32) (int, error) {
	for {
		n, _, e := syscall.Syscall6(sysIOUringEnter, uintptr(r.fd),
			uintptr(toSubmit), uintptr(minComplete), uintptr(flags), 0, 0)
		if e == syscall.EINTR {
			// Re-entering is safe: the kernel submits at most what the SQ
			// ring holds, so a partially-submitted batch cannot double.
			continue
		}
		if e != 0 {
			return 0, e
		}
		return int(n), nil
	}
}

// peek consumes one completion if available.
func (r *uring) peek() (ioUringCqe, bool) {
	head := *r.cqHead
	if head == atomic.LoadUint32(r.cqTail) {
		return ioUringCqe{}, false
	}
	c := r.cqes[head&r.cqMask]
	atomic.StoreUint32(r.cqHead, head+1)
	return c, true
}

func (r *uring) destroy() {
	if r.sqeMem != nil {
		syscall.Munmap(r.sqeMem)
	}
	if r.cqMem != nil && !r.singleMmap {
		syscall.Munmap(r.cqMem)
	}
	if r.sqMem != nil {
		syscall.Munmap(r.sqMem)
	}
	syscall.Close(r.fd)
}

const (
	uringRecvBufs  = 32 // provided buffers (power of two)
	uringSendSlots = DefaultBatch

	// Provided-buffer layout for multishot RECVMSG: io_uring_recvmsg_out
	// header (16) + name area (sockaddrBuf capacity) + payload. The
	// stride is rounded to 8 so every buffer stays aligned for the raw
	// sockaddr casts.
	uringRecvHdr     = 16
	uringRecvPayload = uringRecvHdr + sockaddrBuf // control capacity is 0
	uringBufStride   = (uringRecvPayload + MaxDatagram + 7) &^ 7

	udRecvArm = ^uint64(0)     // userData of the multishot recv op
	udWake    = ^uint64(0) - 1 // userData of the close-wake NOP
)

// bufRing is a registered provided-buffer ring: the descriptor ring is
// page-aligned mmap'd memory shared with the kernel; the payload slab is
// ordinary (non-moving) Go heap the descriptors point into.
type bufRing struct {
	ringMem []byte
	slab    []byte
	entries uint32
	tail    uint32
}

func newBufRing(ringFd int, entries uint32, bgid uint16) (*bufRing, error) {
	mem, err := syscall.Mmap(-1, 0, int(entries)*int(unsafe.Sizeof(ioUringBuf{})),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANONYMOUS|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	b := &bufRing{
		ringMem: mem,
		slab:    make([]byte, int(entries)*uringBufStride),
		entries: entries,
	}
	reg := ioUringBufReg{
		ringAddr:    uint64(uintptr(unsafe.Pointer(&mem[0]))),
		ringEntries: entries,
		bgid:        bgid,
	}
	_, _, e := syscall.Syscall6(sysIOUringRegister, uintptr(ringFd),
		ioringRegisterPbufRing, uintptr(unsafe.Pointer(&reg)), 1, 0, 0)
	if e != 0 {
		syscall.Munmap(mem)
		return nil, fmt.Errorf("register pbuf ring: %w", e)
	}
	for bid := uint16(0); bid < uint16(entries); bid++ {
		b.add(bid)
	}
	b.publish()
	return b, nil
}

func (b *bufRing) buf(bid uint16) []byte {
	off := int(bid) * uringBufStride
	return b.slab[off : off+uringBufStride]
}

// add stages buffer bid for the kernel; publish makes staged entries
// visible.
func (b *bufRing) add(bid uint16) {
	idx := b.tail & (b.entries - 1)
	e := (*ioUringBuf)(unsafe.Pointer(&b.ringMem[idx*uint32(unsafe.Sizeof(ioUringBuf{}))]))
	e.addr = uint64(uintptr(unsafe.Pointer(&b.slab[int(bid)*uringBufStride])))
	e.length = uringBufStride
	e.bid = bid
	b.tail++
}

func (b *bufRing) publish() {
	// The shared tail is the 16-bit resv field of entry 0 (offset 14);
	// sync/atomic has no 16-bit store, so compose one 32-bit release
	// store covering entry 0's bid (offset 12, low half on these
	// little-endian targets) and the tail. Only this side writes either
	// field; the kernel only reads.
	word := (*uint32)(unsafe.Pointer(&b.ringMem[12]))
	bid0 := *(*uint16)(unsafe.Pointer(&b.ringMem[12]))
	atomic.StoreUint32(word, uint32(bid0)|uint32(uint16(b.tail))<<16)
}

func (b *bufRing) destroy(ringFd int) {
	reg := ioUringBufReg{bgid: 0}
	syscall.Syscall6(sysIOUringRegister, uintptr(ringFd),
		ioringUnregisterPbufRing, uintptr(unsafe.Pointer(&reg)), 1, 0, 0)
	syscall.Munmap(b.ringMem)
}

// uringConn is the io_uring implementation of Conn.
type uringConn struct {
	c  *net.UDPConn
	fd int32
	v6 bool

	rring *uring
	bufs  *bufRing
	rmsg  syscall.Msghdr
	rname [sockaddrBuf]byte
	rsqMu sync.Mutex // serializes recv-ring SQ use (re-arm vs close wake)

	wmu    sync.Mutex
	wring  *uring
	wmsgs  []syscall.Msghdr
	wiovs  []syscall.Iovec
	wnames [][sockaddrBuf]byte
	wres   []int32

	closed       atomic.Bool
	readerBusy   atomic.Int32
	teardownOnce sync.Once

	rxTrav, txTrav atomic.Int64
}

// newURingUDP builds the io_uring connection for c and proves it works
// with a loopback round-trip; any failure tears down and reports why.
func newURingUDP(c *net.UDPConn) (Conn, error) {
	u := &uringConn{
		c:      c,
		wmsgs:  make([]syscall.Msghdr, uringSendSlots),
		wiovs:  make([]syscall.Iovec, uringSendSlots),
		wnames: make([][sockaddrBuf]byte, uringSendSlots),
		wres:   make([]int32, uringSendSlots),
	}
	rc, err := c.SyscallConn()
	if err != nil {
		return nil, err
	}
	var nameErr error
	cerr := rc.Control(func(fd uintptr) {
		// The raw fd is retained for the rings' lifetime: the daemon owns
		// the socket for the daemon's lifetime and Close tears the rings
		// down before closing it, so the fd cannot be recycled under us.
		u.fd = int32(fd)
		sa, err := syscall.Getsockname(int(fd))
		if err != nil {
			nameErr = err
			return
		}
		_, u.v6 = sa.(*syscall.SockaddrInet6)
	})
	if cerr != nil {
		return nil, cerr
	}
	if nameErr != nil {
		return nil, nameErr
	}
	if u.rring, err = newRing(8, 256); err != nil {
		return nil, fmt.Errorf("udpbatch: io_uring unavailable: %w", err)
	}
	if u.wring, err = newRing(uringSendSlots, 2*uringSendSlots); err != nil {
		u.rring.destroy()
		return nil, fmt.Errorf("udpbatch: io_uring unavailable: %w", err)
	}
	if u.bufs, err = newBufRing(u.rring.fd, uringRecvBufs, 0); err != nil {
		u.rring.destroy()
		u.wring.destroy()
		return nil, fmt.Errorf("udpbatch: io_uring unavailable: %w", err)
	}
	fail := func(err error) (Conn, error) {
		u.teardownOnce.Do(u.teardown)
		return nil, err
	}
	if err := u.armRecv(); err != nil {
		return fail(fmt.Errorf("udpbatch: io_uring unavailable: %w", err))
	}
	if err := u.selfTest(); err != nil {
		return fail(fmt.Errorf("udpbatch: io_uring probe failed: %w", err))
	}
	return u, nil
}

// selfTest round-trips one datagram through the send chain, the multishot
// recv and the provided-buffer ring — a functional capability probe that
// catches every pre-6.0 kernel and every seccomp/sysctl restriction in
// one shot. It runs at construction, before the socket's address is
// handed to any peer; a stray foreign datagram consumed here is ordinary
// UDP loss.
func (u *uringConn) selfTest() error {
	la, ok := u.c.LocalAddr().(*net.UDPAddr)
	if !ok {
		return errors.New("not a UDP socket")
	}
	ip := la.IP
	if ip == nil || ip.IsUnspecified() {
		if u.v6 {
			ip = net.IPv6loopback
		} else {
			ip = net.IPv4(127, 0, 0, 1)
		}
	}
	target, ok := CompressUDPAddr(&net.UDPAddr{IP: ip, Port: la.Port})
	if !ok {
		return errors.New("unmappable local address")
	}
	payload := []byte("udpbatch-uring-probe")
	if n, err := u.WriteBatch([]Message{{Buf: payload, Addr: target}}); err != nil || n != 1 {
		return fmt.Errorf("probe send: n=%d err=%w", n, err)
	}
	slot := []Message{{Buf: make([]byte, 0, 2048)}}
	deadline := clk.Now().Add(250 * time.Millisecond)
	for clk.Now().Before(deadline) {
		n, rearm, err := u.harvest(slot)
		if rearm {
			if err := u.armRecv(); err != nil {
				return err
			}
		}
		if err != nil {
			return err
		}
		if n == 1 && string(slot[0].Buf) == string(payload) {
			return nil
		}
		slot[0].Buf = slot[0].Buf[:0]
		clk.Sleep(time.Millisecond)
	}
	return errors.New("no completion within deadline (multishot recvmsg unsupported?)")
}

func (u *uringConn) BatchCap() int { return uringSendSlots }

func (u *uringConn) ProviderName() string { return "io_uring" }

// ReadSlotSize: a provided buffer holds up to the UDP payload ceiling, so
// caller slots must too — an oversized-but-legitimate datagram must not
// truncate on the copy-out.
func (u *uringConn) ReadSlotSize() int { return MaxDatagram }

// Traversals: no segmentation offload on this path — one traversal per
// datagram — reported so stack-traversal metering stays uniform across
// providers.
func (u *uringConn) Traversals() (in, out int64) {
	return u.rxTrav.Load(), u.txTrav.Load()
}

// armRecv (re)arms the multishot RECVMSG with buffer selection.
func (u *uringConn) armRecv() error {
	u.rsqMu.Lock()
	defer u.rsqMu.Unlock()
	u.rmsg = syscall.Msghdr{Name: &u.rname[0], Namelen: sockaddrBuf}
	sqe := ioUringSqe{
		opcode:   ioringOpRecvmsg,
		flags:    iosqeBufferSelect,
		ioprio:   ioringRecvMultishot,
		fd:       u.fd,
		addr:     uint64(uintptr(unsafe.Pointer(&u.rmsg))),
		length:   1,
		userData: udRecvArm,
		bufIndex: 0, // buf_group
	}
	if !u.rring.push(&sqe) {
		return errors.New("udpbatch: recv ring full")
	}
	_, err := u.rring.enter(1, 0, 0)
	return err
}

// wake posts a NOP on the receive ring so a reader blocked in
// io_uring_enter returns and observes the closed flag.
func (u *uringConn) wake() {
	u.rsqMu.Lock()
	defer u.rsqMu.Unlock()
	sqe := ioUringSqe{opcode: ioringOpNop, userData: udWake}
	if u.rring.push(&sqe) {
		u.rring.enter(1, 0, 0)
	}
}

// harvest drains pending receive completions into msgs without blocking.
// rearm reports that the multishot op terminated (no IORING_CQE_F_MORE)
// and must be resubmitted.
func (u *uringConn) harvest(msgs []Message) (n int, rearm bool, err error) {
	out := 0
	added := false
	for out < len(msgs) {
		cqe, ok := u.rring.peek()
		if !ok {
			break
		}
		if cqe.userData != udRecvArm {
			continue // close-wake NOP
		}
		if cqe.flags&ioringCqeFMore == 0 {
			rearm = true
		}
		if cqe.res < 0 {
			e := syscall.Errno(-cqe.res)
			switch e {
			case syscall.ENOBUFS, syscall.ECANCELED, syscall.EAGAIN, syscall.EINTR,
				syscall.ENOMEM, syscall.ECONNREFUSED, syscall.EHOSTUNREACH,
				syscall.ENETUNREACH, syscall.ETIMEDOUT, syscall.EPROTO:
				// Transient (kernel pressure, buffer exhaustion, one peer's
				// ICMP error): the re-arm plus replenished buffers recover,
				// and the mmsg path's discipline holds — never kill the
				// shared socket's reader for one peer.
				continue
			}
			if added {
				u.bufs.publish()
			}
			return out, rearm, e
		}
		if cqe.flags&ioringCqeFBuffer == 0 {
			continue // defensive: completion without a selected buffer
		}
		bid := uint16(cqe.flags >> 16)
		buf := u.bufs.buf(bid)
		n := int(cqe.res)
		if n > len(buf) {
			n = len(buf)
		}
		if addr, payload, ok := parseRecvmsgOut(buf[:n]); ok {
			k := len(payload)
			if c := cap(msgs[out].Buf); c < k {
				k = c // undersized caller slot: kernel-style truncation
			}
			msgs[out].Buf = msgs[out].Buf[:k]
			copy(msgs[out].Buf, payload[:k])
			msgs[out].Addr = addr
			out++
			u.rxTrav.Add(1)
		}
		u.bufs.add(bid)
		added = true
	}
	if added {
		u.bufs.publish()
	}
	return out, rearm, nil
}

// parseRecvmsgOut decodes the io_uring_recvmsg_out layout the kernel
// writes into a selected buffer: {namelen, controllen, payloadlen, flags}
// (4×u32), the name area at its full capacity, then the payload.
func parseRecvmsgOut(b []byte) (netem.Addr, []byte, bool) {
	if len(b) < uringRecvPayload {
		return netem.Addr{}, nil, false
	}
	payloadLen := int(*(*uint32)(unsafe.Pointer(&b[8])))
	if payloadLen > len(b)-uringRecvPayload {
		payloadLen = len(b) - uringRecvPayload
	}
	addr, ok := decodeName((*[sockaddrBuf]byte)(unsafe.Pointer(&b[uringRecvHdr])))
	if !ok {
		return netem.Addr{}, nil, false
	}
	return addr, b[uringRecvPayload : uringRecvPayload+payloadLen], true
}

// ReadBatch drains completions the kernel already posted — zero syscalls
// when the queue is busy — and blocks in io_uring_enter only when idle.
func (u *uringConn) ReadBatch(msgs []Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	if u.closed.Load() {
		return 0, net.ErrClosed
	}
	u.readerBusy.Add(1)
	defer u.readerBusy.Add(-1)
	for i := range msgs {
		if cap(msgs[i].Buf) == 0 {
			return 0, errors.New("udpbatch: read slot without buffer capacity")
		}
	}
	for {
		if u.closed.Load() {
			return 0, net.ErrClosed
		}
		n, rearm, err := u.harvest(msgs)
		if rearm && !u.closed.Load() {
			if aerr := u.armRecv(); aerr != nil && err == nil {
				err = aerr
			}
		}
		if n > 0 {
			return n, nil
		}
		if err != nil {
			return 0, err
		}
		if _, err := u.rring.enter(0, 1, ioringEnterGetevents); err != nil {
			return 0, err
		}
	}
}

// WriteBatch submits up to uringSendSlots linked SENDMSG SQEs with one
// io_uring_enter and waits for their (in-order) completions on the same
// call — the flusher path drains completions exactly where it used to
// drain sendmmsg results.
func (u *uringConn) WriteBatch(msgs []Message) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	u.wmu.Lock()
	defer u.wmu.Unlock()
	if u.closed.Load() {
		return 0, net.ErrClosed
	}
	n := len(msgs)
	if n > uringSendSlots {
		n = uringSendSlots
	}
	// Same contract as the mmsg path: an empty slot truncates the batch
	// before it, transmits the valid prefix, then surfaces at index n.
	var slotErr error
	for i := 0; i < n; i++ {
		if len(msgs[i].Buf) == 0 {
			n, slotErr = i, errors.New("udpbatch: empty write slot")
			break
		}
	}
	if n == 0 {
		return 0, slotErr
	}
	for i := 0; i < n; i++ {
		nameLen := encodeName(&u.wnames[i], msgs[i].Addr, u.v6)
		u.wiovs[i] = syscall.Iovec{Base: &msgs[i].Buf[0]}
		u.wiovs[i].SetLen(len(msgs[i].Buf))
		u.wmsgs[i] = syscall.Msghdr{
			Name:    &u.wnames[i][0],
			Namelen: nameLen,
			Iov:     &u.wiovs[i],
			Iovlen:  1,
		}
		sqe := ioUringSqe{
			opcode:   ioringOpSendmsg,
			fd:       u.fd,
			addr:     uint64(uintptr(unsafe.Pointer(&u.wmsgs[i]))),
			length:   1,
			opFlags:  syscall.MSG_NOSIGNAL,
			userData: uint64(i),
		}
		if i < n-1 {
			sqe.flags = iosqeIOLink
		}
		if !u.wring.push(&sqe) {
			n = i // ring full cannot happen at these sizes; degrade to a short write
			break
		}
	}
	if n == 0 {
		return 0, slotErr
	}
	if _, err := u.wring.enter(uint32(n), uint32(n), ioringEnterGetevents); err != nil {
		return 0, err
	}
	for i := 0; i < n; i++ {
		u.wres[i] = 1 // sentinel: not yet completed
	}
	for got := 0; got < n; {
		cqe, ok := u.wring.peek()
		if !ok {
			if _, err := u.wring.enter(0, 1, ioringEnterGetevents); err != nil {
				return 0, err
			}
			continue
		}
		if cqe.userData < uint64(n) && u.wres[cqe.userData] == 1 {
			u.wres[cqe.userData] = cqe.res
			got++
		}
	}
	runtime.KeepAlive(msgs)
	sent := 0
	for i := 0; i < n; i++ {
		if u.wres[i] < 0 {
			// The link chain guarantees everything after the first failure
			// completed as -ECANCELED; msgs[sent] is the failing datagram,
			// the caller drops it and retries the remainder.
			u.txTrav.Add(int64(sent))
			return sent, syscall.Errno(-u.wres[i])
		}
		sent++
	}
	u.txTrav.Add(int64(sent))
	if slotErr != nil {
		return sent, slotErr
	}
	return sent, nil
}

// Close wakes a blocked reader, closes the socket, and tears the rings
// down once the reader has drained out of them.
func (u *uringConn) Close() error {
	if !u.closed.CompareAndSwap(false, true) {
		return nil
	}
	u.wake()
	err := u.c.Close()
	go func() {
		// The reader re-checks the closed flag after every blocking wait;
		// once it has left the ring, unmapping is safe. The bound makes a
		// wedged reader leak the rings rather than race them.
		for i := 0; i < 2000 && u.readerBusy.Load() != 0; i++ {
			clk.Sleep(time.Millisecond)
		}
		if u.readerBusy.Load() != 0 {
			return
		}
		u.wmu.Lock()
		defer u.wmu.Unlock()
		u.teardownOnce.Do(u.teardown)
	}()
	return err
}

func (u *uringConn) teardown() {
	u.bufs.destroy(u.rring.fd)
	u.rring.destroy()
	u.wring.destroy()
}

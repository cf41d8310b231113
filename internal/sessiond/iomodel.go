package sessiond

import (
	"fmt"

	"repro/internal/netem"
	"repro/internal/telemetry"
	"repro/internal/udpbatch"
)

// IOModel selects which udpbatch provider's geometry a simulated daemon's
// I/O is accounted in. A daemon driven in virtual time has no kernel under
// it, so the syscalls its traffic would have cost a served socket are
// charged at its edges by the code in this file. The packet path
// (batch.go) is identical in every model and knows none of this: it sees
// batches arrive and a connection to write to.
type IOModel int

const (
	IOModelMMsg IOModel = iota // recvmmsg/sendmmsg; the default
	IOModelLoop                // the portable one-datagram-per-syscall baseline
)

// ioModels is each model's geometry: its name (the one the udpbatch ladder
// and -udp-provider use) and how many datagrams one read and one write
// syscall of the real provider move.
var ioModels = [...]struct {
	name              string
	readCap, writeCap int
}{
	IOModelMMsg: {"mmsg", udpbatch.DefaultBatch, udpbatch.DefaultBatch},
	IOModelLoop: {"loop", 1, 1},
}

func (m IOModel) valid() bool { return m >= 0 && int(m) < len(ioModels) }

func (m IOModel) String() string {
	if !m.valid() {
		return "unknown"
	}
	return ioModels[m].name
}

// ParseIOModel maps a provider name to its model ("" is the default).
// Unknown names error rather than default, matching NewUDPConnProvider's
// refusal to silently substitute a provider.
func ParseIOModel(name string) (IOModel, error) {
	for m := range ioModels {
		if ioModels[m].name == name {
			return IOModel(m), nil
		}
	}
	if name == "" {
		return IOModelMMsg, nil
	}
	return IOModelMMsg, fmt.Errorf("sessiond: unknown io model %q", name)
}

// modelConn stands where the served socket would. Its write half is the
// daemon's way out when Config.Send is set (New installs it): one
// WriteBatch is one modeled syscall handing every datagram to Send. Its
// read half is chargeRead; there is no ReadBatch, nothing reads a model.
type modelConn struct {
	model IOModel
	send  func(dst netem.Addr, wire []byte)
}

func (c *modelConn) BatchCap() int { return ioModels[c.model].writeCap }

// WriteBatch never fails and never writes short.
func (c *modelConn) WriteBatch(msgs []udpbatch.Message) (int, error) {
	for i := range msgs {
		c.send(msgs[i].Addr, msgs[i].Buf)
	}
	return len(msgs), nil
}

// chargeRead accounts the read syscalls that would have delivered msgs,
// the batch a simulation hands to HandleBatch.
func (c *modelConn) chargeRead(m *Metrics, pipe *telemetry.Pipeline, msgs []udpbatch.Message) {
	readCap := ioModels[c.model].readCap
	calls := (len(msgs) + readCap - 1) / readCap
	for i := 0; i < calls; i++ {
		// Attribute the batch's datagrams evenly across the modeled calls
		// so the size histogram stays meaningful in every model.
		size := len(msgs) / calls
		if i < len(msgs)%calls {
			size++
		}
		m.ReadBatchCalls.Add(1)
		m.ReadBatchSizes.Observe(size)
		// The modeled read syscall is instantaneous in virtual time; the
		// 0-duration marker keeps StageRead's count == read_batch_calls.
		pipe.Observe(telemetry.StageRead, 0)
	}
}

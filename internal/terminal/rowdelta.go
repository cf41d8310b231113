package terminal

import "repro/internal/binio"

// This file exports the row-granular slices of the snapshot codec that
// internal/sessiond's incremental journal uses to persist *screen deltas*:
// instead of re-serializing the whole grid on every flush, a delta record
// carries the meta section (cursor, modes, title, counters) plus only the
// rows whose generation changed since the last durable record. The wire
// layouts are exactly the corresponding sections of AppendSnapshot, so a
// checkpoint row and a delta row are interchangeable on decode.

// AppendMetaSnapshot appends the snapshot format's non-grid prefix —
// version, dimensions, draw state, title, synchronized counters and the
// history limit — without any cell rows. With a warmed buffer the
// encode performs no heap allocations.
func (f *Framebuffer) AppendMetaSnapshot(buf []byte) []byte {
	return f.appendSnapshotMeta(buf)
}

// ApplyMetaSnapshot decodes an AppendMetaSnapshot serialization into f,
// whose dimensions must match the encoded ones (the journal only emits
// deltas while the screen size is unchanged). It returns the unconsumed
// remainder of data.
func (f *Framebuffer) ApplyMetaSnapshot(data []byte) ([]byte, error) {
	r := binio.NewReader(data)
	ver, ok := r.Byte()
	if !ok || ver != snapshotVersion {
		return nil, ErrBadSnapshot
	}
	w, ok := r.BoundedUvarint(MaxDim)
	if !ok || int(w) != f.W {
		return nil, ErrBadSnapshot
	}
	h, ok := r.BoundedUvarint(MaxDim)
	if !ok || int(h) != f.H {
		return nil, ErrBadSnapshot
	}
	if !decodeSnapshotMeta(&r, f) {
		return nil, ErrBadSnapshot
	}
	return r.Rest(), nil
}

// RowGen returns the generation number of grid row i. The journal records
// generations at flush time and compares them on the next flush to find
// the rows a delta record must carry.
func (f *Framebuffer) RowGen(i int) uint64 { return f.rows[i].gen }

// AppendRowSnapshot appends the RLE serialization of grid row i — the
// same layout AppendSnapshot uses for each row of the grid.
func (f *Framebuffer) AppendRowSnapshot(buf []byte, i int) []byte {
	return appendRow(buf, f.rows[i])
}

// ApplyRowSnapshot decodes one RLE row into grid row i, replacing it with
// a fresh private row at a new generation, and returns the unconsumed
// remainder of data.
func (f *Framebuffer) ApplyRowSnapshot(data []byte, i int) ([]byte, error) {
	r := binio.NewReader(data)
	row, ok := decodeNewRow(&r, f.W)
	if !ok {
		return nil, ErrBadSnapshot
	}
	f.rows[i] = row
	return r.Rest(), nil
}

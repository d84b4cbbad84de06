package store

// The write-ahead log: one frame per journaled Apply batch, appended
// before the batch's snapshot swap becomes visible.
//
//	header: magic "LBSWAL01" · u64 checkpointEpoch · u32 crc
//	frame:  u32 len · u32 crc(payload) · payload
//	payload: u64 epochBefore · u32 nops · ops
//	op:     u8 kind · insert → tuple record
//	                · delete → varint id
//	                · move   → varint id · 2×f64 destination
//
// Recovery reads the longest valid prefix: the first frame whose
// length is implausible, whose checksum mismatches, or whose bytes
// run past EOF ends the log — everything before it is a consistent
// prefix of epochs (frames are whole batches, and batches are the
// atomicity unit of the live database). Only an unreadable header is
// a *CorruptError: with no trustworthy checkpoint epoch nothing can
// be replayed safely.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/live"
)

const (
	walMagic      = "LBSWAL01"
	walHeaderSize = 8 + 8 + 4
	// maxFrameSize bounds a frame's declared length so a corrupt length
	// field cannot drive a huge allocation.
	maxFrameSize = 64 << 20
)

// walFrame is one decoded batch.
type walFrame struct {
	epochBefore uint64
	ops         []live.Op
}

func (f *walFrame) epochAfter() uint64 { return f.epochBefore + uint64(len(f.ops)) }

// encodeFrame builds the on-disk bytes of one batch.
func encodeFrame(epochBefore uint64, ops []live.Op) ([]byte, error) {
	payload := binary.LittleEndian.AppendUint64(nil, epochBefore)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(ops)))
	for _, op := range ops {
		payload = append(payload, byte(op.Kind))
		switch op.Kind {
		case live.OpInsert:
			// A live insert places the tuple at its own location; the
			// effective slot is unused on decode but keeps one record codec.
			payload = appendTuple(payload, op.Tuple, op.Tuple.Loc)
		case live.OpDelete:
			payload = binary.AppendVarint(payload, op.ID)
		case live.OpMove:
			payload = binary.AppendVarint(payload, op.ID)
			payload = appendF64(payload, op.Loc.X)
			payload = appendF64(payload, op.Loc.Y)
		default:
			return nil, fmt.Errorf("store: cannot journal op kind %d", op.Kind)
		}
	}
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	return append(frame, payload...), nil
}

// decodePayload parses a checksum-valid payload.
func decodePayload(payload []byte) (walFrame, error) {
	var f walFrame
	if len(payload) < 12 {
		return f, fmt.Errorf("short payload (%d bytes)", len(payload))
	}
	f.epochBefore = binary.LittleEndian.Uint64(payload)
	nops := binary.LittleEndian.Uint32(payload[8:])
	r := &reader{b: payload, i: 12}
	// The smallest op, a delete, is 2 bytes (kind, one-byte varint): a
	// forged count must not size the slice beyond what the bytes hold.
	f.ops = make([]live.Op, 0, capHint(uint64(nops), (len(payload)-12)/2))
	for j := uint32(0); j < nops; j++ {
		if r.i >= len(r.b) {
			return f, fmt.Errorf("op %d: truncated", j)
		}
		kind := live.OpKind(r.b[r.i])
		r.i++
		var op live.Op
		op.Kind = kind
		var err error
		switch kind {
		case live.OpInsert:
			op.Tuple, _, err = r.tuple()
		case live.OpDelete:
			op.ID, err = r.varint()
		case live.OpMove:
			if op.ID, err = r.varint(); err == nil {
				op.Loc, err = r.point()
			}
		default:
			err = fmt.Errorf("unknown op kind %d", kind)
		}
		if err != nil {
			return f, fmt.Errorf("op %d: %w", j, err)
		}
		f.ops = append(f.ops, op)
	}
	return f, nil
}

// wal is an open log: an append handle plus the header's checkpoint
// epoch. Appends are serialized by the owning LiveStore.
type wal struct {
	f     *os.File
	path  string
	ckpt  uint64 // checkpoint epoch in the header
	sync_ bool
	m     *Metrics
}

// createWAL writes a fresh log (atomically) whose header records
// checkpointEpoch, pre-seeded with frames (used by rotation to carry
// batches newer than the checkpoint across the truncation).
func createWAL(path string, checkpointEpoch uint64, frames []walFrame, sync bool, m *Metrics) (*wal, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, walHeaderSize)
	hdr = append(hdr, walMagic...)
	hdr = binary.LittleEndian.AppendUint64(hdr, checkpointEpoch)
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	w := &wal{f: f, path: path, ckpt: checkpointEpoch, sync_: sync, m: m}
	for _, fr := range frames {
		if err := w.append(fr.epochBefore, fr.ops); err != nil {
			f.Close()
			os.Remove(tmp)
			return nil, err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	return w, nil
}

// openWALForAppend opens an existing, already-validated log at its
// end. valid is the byte length of the recovered prefix — appending
// starts there, so a corrupt tail is overwritten rather than extended.
func openWALForAppend(path string, checkpointEpoch uint64, valid int64, sync bool, m *Metrics) (*wal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f, path: path, ckpt: checkpointEpoch, sync_: sync, m: m}, nil
}

// append journals one batch.
func (w *wal) append(epochBefore uint64, ops []live.Op) error {
	frame, err := encodeFrame(epochBefore, ops)
	if err != nil {
		return err
	}
	if _, err := w.f.Write(frame); err != nil {
		return err
	}
	if w.sync_ {
		if err := w.f.Sync(); err != nil {
			return err
		}
	}
	if w.m != nil {
		w.m.WALBytes.Add(uint64(len(frame)))
		w.m.WALFrames.Add(1)
	}
	return nil
}

func (w *wal) close() error { return w.f.Close() }

// readWAL reads path's header and its longest valid prefix of frames.
// It returns the checkpoint epoch, the decoded frames, and the byte
// offset where the valid prefix ends (where appends may resume). An
// unreadable header is a *CorruptError; a damaged tail just ends the
// prefix.
func readWAL(path string) (ckpt uint64, frames []walFrame, valid int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, 0, err
	}
	if len(data) < walHeaderSize {
		return 0, nil, 0, corrupt(path, "short WAL header (%d bytes)", len(data))
	}
	if string(data[:8]) != walMagic {
		return 0, nil, 0, corrupt(path, "bad WAL magic %q", data[:8])
	}
	wantCRC := binary.LittleEndian.Uint32(data[16:])
	if got := crc32.ChecksumIEEE(data[:16]); got != wantCRC {
		return 0, nil, 0, corrupt(path, "WAL header checksum %08x, want %08x", got, wantCRC)
	}
	ckpt = binary.LittleEndian.Uint64(data[8:])
	off := int64(walHeaderSize)
	for {
		rest := data[off:]
		if len(rest) < 8 {
			break // clean EOF or truncated frame header: prefix ends here
		}
		n := binary.LittleEndian.Uint32(rest)
		crc := binary.LittleEndian.Uint32(rest[4:])
		if uint64(n) > maxFrameSize || int64(len(rest)) < 8+int64(n) {
			break // implausible length or truncated payload
		}
		payload := rest[8 : 8+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break // torn or flipped bytes
		}
		fr, derr := decodePayload(payload)
		if derr != nil {
			break // checksum passed but contents malformed: stop trusting
		}
		frames = append(frames, fr)
		off += 8 + int64(n)
	}
	return ckpt, frames, off, nil
}

package store

// LiveStore pairs a live.Database with its durable form: a .lbspack
// checkpoint of the last flattened snapshot plus a WAL of every batch
// applied since. The lifecycle:
//
//	open    — load the pack (or build cold via gen and pack it),
//	          replay the WAL's valid prefix on top, attach the journal
//	Apply   — live.Database journals the batch (under this store's
//	          lock) before the snapshot swap makes it visible
//	Checkpoint — write a fresh pack at the current epoch, then rotate
//	          the WAL: batches newer than the checkpoint (an Apply
//	          that journaled while the pack was writing) carry over,
//	          everything older truncates away
//
// The pack renames before the WAL rotates, so a crash between the two
// leaves a newer pack with an older WAL; replay skips frames whose
// epochs the pack already contains, which makes the pair consistent
// in every crash position.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/lbs"
	"repro/internal/live"
)

// Recovery describes what opening a LiveStore found.
type Recovery struct {
	// Warm is true when a pack existed (false = cold ingest via gen).
	Warm bool
	// Epoch is the live epoch the database recovered to (pack epoch +
	// replayed WAL batches).
	Epoch uint64
	// Frames and Ops count the WAL prefix replayed on top of the pack.
	Frames int
	Ops    int
}

// LiveStore is the durable side of one live database. Its mutex
// serializes WAL appends (via the journal hook) against checkpoints,
// so a rotation never loses a concurrent batch.
type LiveStore struct {
	s  *Store
	db *live.Database

	mu  sync.Mutex
	w   *wal
	rec Recovery
}

// journalHook adapts the LiveStore to live.Journal.
type journalHook struct{ ls *LiveStore }

func (j journalHook) Append(epochBefore uint64, ops []live.Op) error {
	j.ls.mu.Lock()
	defer j.ls.mu.Unlock()
	return j.ls.w.append(epochBefore, ops)
}

func openLiveStore(s *Store, gen func() *lbs.Database, opts lbs.Options, lopts live.Options) (*LiveStore, error) {
	walPath := filepath.Join(s.dir, walFile)
	ls := &LiveStore{s: s}

	base, packEpoch, warm, err := s.openOrCreatePack(gen)
	if err != nil {
		return nil, err
	}
	ls.rec.Warm = warm

	lopts.Journal = nil
	lopts.StartEpoch = packEpoch
	db, err := live.New(base, opts, lopts)
	if err != nil {
		return nil, err
	}
	ls.db = db
	ls.rec.Epoch = packEpoch

	if _, err := os.Stat(walPath); err == nil {
		ckpt, frames, _, err := readWAL(walPath)
		if err != nil {
			return nil, err // *CorruptError: the header cannot be trusted
		}
		validEnd := int64(walHeaderSize)
		cur := packEpoch
		for _, fr := range frames {
			end := validEnd + 8 + int64(frameLen(fr))
			if fr.epochAfter() <= packEpoch {
				// Already inside the pack (a checkpoint raced a crash
				// between the pack rename and the WAL rotation). Keep the
				// bytes, skip the replay.
				validEnd = end
				continue
			}
			if fr.epochBefore != cur {
				// The chain from the pack epoch breaks here; everything
				// before is a consistent prefix, nothing after is safe.
				break
			}
			if !ls.replay(fr) {
				break
			}
			cur = fr.epochAfter()
			validEnd = end
		}
		ls.rec.Epoch = cur
		ls.w, err = openWALForAppend(walPath, ckpt, validEnd, s.opts.SyncWAL, &s.m)
		if err != nil {
			return nil, err
		}
	} else {
		ls.w, err = createWAL(walPath, packEpoch, nil, s.opts.SyncWAL, &s.m)
		if err != nil {
			return nil, err
		}
	}

	db.SetJournal(journalHook{ls})
	return ls, nil
}

// replay applies one recovered frame; false means the frame does not
// apply cleanly (corrupt beyond what checksums catch) and the prefix
// ends before it. The frame applies whole or not at all: every op is
// checked first, in frame order, against the database as the frame's
// earlier ops leave it (see frameApplies), so Apply never applies a
// prefix of a frame whose later op it would refuse.
func (ls *LiveStore) replay(fr walFrame) bool {
	if !frameApplies(ls.db, fr.ops) {
		return false
	}
	results := ls.db.Apply(context.Background(), fr.ops)
	for _, r := range results {
		if r.Err != nil {
			return false
		}
	}
	ls.s.m.RecoveredFrames.Add(1)
	ls.s.m.RecoveredOps.Add(uint64(len(fr.ops)))
	ls.rec.Frames++
	ls.rec.Ops += len(fr.ops)
	return true
}

// frameApplies reports whether Apply would accept every op of a frame:
// each location is finite (Op.Validate), each insert's ID is absent
// and each delete's or move's ID present, in the database as the
// frame's earlier ops leave it.
func frameApplies(db *live.Database, ops []live.Op) bool {
	present := make(map[int64]bool) // IDs the frame's earlier ops touched
	has := func(id int64) bool {
		if p, ok := present[id]; ok {
			return p
		}
		_, _, ok := db.Lookup(id)
		return ok
	}
	for _, op := range ops {
		if op.Validate() != nil {
			return false
		}
		switch op.Kind {
		case live.OpInsert:
			if has(op.Tuple.ID) {
				return false
			}
			present[op.Tuple.ID] = true
		case live.OpDelete:
			if !has(op.ID) {
				return false
			}
			present[op.ID] = false
		case live.OpMove:
			if !has(op.ID) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// frameLen recomputes a frame's payload length (the codec is
// deterministic, so re-encoding measures the on-disk bytes).
func frameLen(fr walFrame) int {
	b, err := encodeFrame(fr.epochBefore, fr.ops)
	if err != nil {
		return 0
	}
	return len(b) - 8
}

// Recovery reports what opening found.
func (ls *LiveStore) Recovery() Recovery { return ls.rec }

// Checkpoint flattens the current snapshot into a fresh pack and
// truncates the WAL to the batches the pack does not yet contain. It
// is the durable analogue of compaction and safe to call while
// Applies are in flight.
func (ls *LiveStore) Checkpoint() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	db, epoch := ls.db.SnapshotAt()
	if err := WritePackMetric(ls.s.PackPath(), db, ls.s.opts.Metric, epoch, 0, &ls.s.m); err != nil {
		return fmt.Errorf("store: checkpoint pack: %w", err)
	}
	// Rotate: re-read the log we have been appending to and carry over
	// only the batches newer than the checkpoint (a batch journaled
	// while the pack was being written, not yet in any pack).
	_, frames, _, err := readWAL(ls.w.path)
	if err != nil {
		return fmt.Errorf("store: checkpoint rotate: %w", err)
	}
	var keep []walFrame
	for _, fr := range frames {
		if fr.epochAfter() > epoch {
			keep = append(keep, fr)
		}
	}
	neww, err := createWAL(ls.w.path, epoch, keep, ls.s.opts.SyncWAL, &ls.s.m)
	if err != nil {
		return fmt.Errorf("store: checkpoint rotate: %w", err)
	}
	ls.w.close()
	ls.w = neww
	ls.s.m.Checkpoints.Add(1)
	return nil
}

// Close releases the WAL handle. Checkpoint first for a clean
// shutdown; a close without checkpoint is the crash path recovery is
// built for.
func (ls *LiveStore) Close() error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.w.close()
}

package store

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

func openTestLive(t *testing.T, dir string) (*Store, *live.Database) {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := func() *lbs.Database { return workload.USASchools(30, 5).DB }
	db, err := st.OpenLive(gen, lbs.Options{K: 5}, live.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	return st, db
}

func insertOps(start, n int) []live.Op {
	ops := make([]live.Op, n)
	for i := range ops {
		id := int64(start + i)
		ops[i] = live.Op{Kind: live.OpInsert, Tuple: lbs.Tuple{
			ID: id, Loc: geom.Pt(-100+float64(i)*0.01, 40), Name: fmt.Sprintf("t%d", id),
		}}
	}
	return ops
}

func applyAll(t *testing.T, db *live.Database, ops []live.Op) {
	t.Helper()
	for _, r := range db.Apply(context.Background(), ops) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

func TestLiveStoreReopenRestoresEpochAndContent(t *testing.T) {
	dir := t.TempDir()
	st, db := openTestLive(t, dir)
	applyAll(t, db, insertOps(2000, 7))
	want, wantEp := db.SnapshotAt()
	if err := st.Live().Close(); err != nil { // crash: no checkpoint
		t.Fatal(err)
	}

	st2, db2 := openTestLive(t, dir)
	defer st2.Live().Close()
	rec := st2.Live().Recovery()
	if !rec.Warm || rec.Epoch != wantEp {
		t.Fatalf("recovery %+v, want warm at epoch %d", rec, wantEp)
	}
	got, ep := db2.SnapshotAt()
	if ep != wantEp {
		t.Fatalf("epoch %d, want %d", ep, wantEp)
	}
	sameTuples(t, want, got)
	sameAnswers(t, want, got, 5)
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	st, db := openTestLive(t, dir)
	applyAll(t, db, insertOps(2000, 7))
	walPath := filepath.Join(dir, walFile)
	before, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if before.Size() <= int64(walHeaderSize) {
		t.Fatalf("WAL empty (%d bytes) after a batch", before.Size())
	}
	want, wantEp := db.SnapshotAt()

	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != int64(walHeaderSize) {
		t.Fatalf("WAL is %d bytes after checkpoint, want bare header (%d)", after.Size(), walHeaderSize)
	}
	if st.Stats().Checkpoints != 1 {
		t.Fatalf("checkpoints counter = %d, want 1", st.Stats().Checkpoints)
	}
	st.Live().Close()

	// The pack alone now carries the state; reopen replays nothing.
	st2, db2 := openTestLive(t, dir)
	defer st2.Live().Close()
	rec := st2.Live().Recovery()
	if rec.Frames != 0 || rec.Epoch != wantEp {
		t.Fatalf("recovery %+v, want 0 frames at epoch %d", rec, wantEp)
	}
	got, _ := db2.SnapshotAt()
	sameTuples(t, want, got)
}

func TestReplaySkipsFramesAlreadyInPack(t *testing.T) {
	// A crash between the pack rename and the WAL rotation leaves a
	// newer pack with the full old WAL. Recovery must skip the frames
	// the pack already contains instead of double-applying them.
	dir := t.TempDir()
	st, db := openTestLive(t, dir)
	applyAll(t, db, insertOps(2000, 4))
	applyAll(t, db, insertOps(3000, 4))
	want, wantEp := db.SnapshotAt()
	walBytes, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil { // renames the pack at wantEp...
		t.Fatal(err)
	}
	st.Live().Close()
	// ...then "crash before rotation": restore the pre-checkpoint WAL.
	if err := os.WriteFile(filepath.Join(dir, walFile), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, db2 := openTestLive(t, dir)
	defer st2.Live().Close()
	rec := st2.Live().Recovery()
	if rec.Frames != 0 {
		t.Fatalf("replayed %d frames already inside the pack", rec.Frames)
	}
	got, ep := db2.SnapshotAt()
	if ep != wantEp {
		t.Fatalf("epoch %d, want %d", ep, wantEp)
	}
	sameTuples(t, want, got)
}

// TestReplayRefusesNonFiniteFrame: a checksum-valid WAL frame holding
// an op at a non-finite location ends the recovered prefix, and none
// of the frame's ops apply, not even the valid insert before it.
func TestReplayRefusesNonFiniteFrame(t *testing.T) {
	dir := t.TempDir()
	st, db := openTestLive(t, dir)
	applyAll(t, db, insertOps(2000, 3))
	want, wantEp := db.SnapshotAt()
	st.Live().Close()
	ops := insertOps(3000, 2)
	ops[1].Tuple.Loc = geom.Pt(math.Inf(1), 40)
	frame, err := encodeFrame(wantEp, ops)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2, db2 := openTestLive(t, dir)
	defer st2.Live().Close()
	got, ep := db2.SnapshotAt()
	if rec := st2.Live().Recovery(); rec.Epoch != wantEp || ep != wantEp {
		t.Fatalf("recovered to epoch %d (snapshot %d), want %d", rec.Epoch, ep, wantEp)
	}
	sameTuples(t, want, got)
}

// TestReplayAppliesFrameWholeOrNotAtAll forges a checksum-valid frame
// whose later op the database refuses (a duplicate or unknown ID, here
// or after an earlier op of the same frame) behind a valid op. The
// restart must leave the database at the epoch before the frame, with
// none of its ops applied, and the next journaled batch must chain
// onto it, so that a second restart keeps that batch. A frame whose
// ops are valid only in order (a delete, then a re-insert of the same
// ID) must apply whole.
func TestReplayAppliesFrameWholeOrNotAtAll(t *testing.T) {
	del := func(id int64) live.Op { return live.Op{Kind: live.OpDelete, ID: id} }
	move := func(id int64) live.Op { return live.Op{Kind: live.OpMove, ID: id, Loc: geom.Pt(-90, 35)} }
	cases := []struct {
		name    string
		ops     []live.Op
		applies bool
	}{
		{"duplicate insert", append(insertOps(3000, 1), insertOps(2000, 1)...), false},
		{"duplicate within the frame", append(insertOps(3000, 1), insertOps(3000, 1)...), false},
		{"move of an unknown ID", append(insertOps(3000, 1), move(9999)), false},
		{"delete of an unknown ID", append(insertOps(3000, 1), del(9999)), false},
		{"delete of an ID deleted earlier in the frame", []live.Op{del(2000), del(2000)}, false},
		{"delete then re-insert", append([]live.Op{del(2000)}, insertOps(2000, 1)...), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st, db := openTestLive(t, dir)
			applyAll(t, db, insertOps(2000, 3))
			_, ep0 := db.SnapshotAt()
			st.Live().Close()
			frame, err := encodeFrame(ep0, c.ops)
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(frame); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			st2, db2 := openTestLive(t, dir)
			wantEp := ep0
			if c.applies {
				wantEp += uint64(len(c.ops))
			}
			if rec := st2.Live().Recovery(); rec.Epoch != wantEp || db2.Epoch() != wantEp {
				t.Fatalf("recovered to epoch %d (database at %d), want %d", rec.Epoch, db2.Epoch(), wantEp)
			}
			applyAll(t, db2, insertOps(4000, 2))
			want, wantEp2 := db2.SnapshotAt()
			st2.Live().Close()

			st3, db3 := openTestLive(t, dir)
			defer st3.Live().Close()
			got, ep := db3.SnapshotAt()
			if ep != wantEp2 {
				t.Fatalf("second restart recovered to epoch %d, want %d: the batch journaled after the first restart was lost", ep, wantEp2)
			}
			sameTuples(t, want, got)
		})
	}
}

func TestMutationsAfterReopenAreJournaled(t *testing.T) {
	dir := t.TempDir()
	st, db := openTestLive(t, dir)
	applyAll(t, db, insertOps(2000, 3))
	st.Live().Close()

	st2, db2 := openTestLive(t, dir)
	applyAll(t, db2, insertOps(3000, 3))
	want, wantEp := db2.SnapshotAt()
	st2.Live().Close()

	st3, db3 := openTestLive(t, dir)
	defer st3.Live().Close()
	got, ep := db3.SnapshotAt()
	if ep != wantEp {
		t.Fatalf("epoch %d, want %d", ep, wantEp)
	}
	sameTuples(t, want, got)
}

func TestConcurrentApplyAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, db := openTestLive(t, dir)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			applyAll(t, db, insertOps(5000+i*10, 3))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := st.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	want, wantEp := db.SnapshotAt()
	if err := st.Close(); err != nil { // clean shutdown: final checkpoint
		t.Fatal(err)
	}

	st2, db2 := openTestLive(t, dir)
	defer st2.Live().Close()
	got, ep := db2.SnapshotAt()
	if ep != wantEp {
		t.Fatalf("epoch %d, want %d", ep, wantEp)
	}
	sameTuples(t, want, got)
}

func TestOpenLiveRejectsCallerJournal(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen := func() *lbs.Database { return workload.USASchools(10, 1).DB }
	_, err = st.OpenLive(gen, lbs.Options{K: 2}, live.Options{Journal: badJournal{}})
	if err == nil {
		t.Fatal("OpenLive accepted a caller-supplied journal")
	}
}

type badJournal struct{}

func (badJournal) Append(uint64, []live.Op) error { return nil }

func TestOpenOrCreateDatabaseWarmPath(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	gen := func() *lbs.Database { calls++; return workload.USASchools(100, 3).DB }
	db, warm, err := st.OpenOrCreateDatabase(gen)
	if err != nil {
		t.Fatal(err)
	}
	if warm || calls != 1 {
		t.Fatalf("first open: warm=%v calls=%d, want cold single build", warm, calls)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2, warm, err := st2.OpenOrCreateDatabase(gen)
	if err != nil {
		t.Fatal(err)
	}
	if !warm || calls != 1 {
		t.Fatalf("second open: warm=%v calls=%d, want warm without rebuilding", warm, calls)
	}
	sameTuples(t, db, db2)
	sameAnswers(t, db, db2, 5)
}

// TestOpenOrCreateDatabaseNilGen: a cold start whose gen builds no
// database is an error, not a panic while packing it; the store is
// left without a pack, so the next start is cold again.
func TestOpenOrCreateDatabaseNilGen(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, warm, err := st.OpenOrCreateDatabase(func() *lbs.Database { return nil })
	if err == nil || db != nil || warm {
		t.Fatalf("OpenOrCreateDatabase(nil gen) = %v, %v, %v; want an error", db, warm, err)
	}
	if _, err := os.Stat(st.PackPath()); !os.IsNotExist(err) {
		t.Fatalf("pack after a failed cold start: stat err = %v, want not-exist", err)
	}
}

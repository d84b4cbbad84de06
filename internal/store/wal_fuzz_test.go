package store

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// FuzzWALReplay writes arbitrary bytes as the WAL beside a small pack
// and opens the store, as a restart after a crash does: the open must
// recover a prefix or return a *CorruptError, never panic, and every
// recovered tuple must have finite coordinates. Seeds are a real WAL
// of seven inserts, a torn copy of it, a frame with a forged op count
// and a frame holding a non-finite insert.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	db, err := st.OpenLive(func() *lbs.Database { return workload.USASchools(30, 5).DB }, lbs.Options{K: 5}, live.Options{CompactThreshold: -1})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range db.Apply(context.Background(), insertOps(2000, 7)) {
		if r.Err != nil {
			f.Fatal(r.Err)
		}
	}
	if err := st.Live().Close(); err != nil {
		f.Fatal(err)
	}
	pack, err := os.ReadFile(filepath.Join(dir, packFile))
	if err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)-5])
	forged := binary.LittleEndian.AppendUint64(nil, 0)
	forged = binary.LittleEndian.AppendUint32(forged, 1<<20)
	forged = append(forged, byte(live.OpDelete), 2)
	f.Add(append(walHeader(0), walFrameOf(forged)...))
	nan, err := encodeFrame(0, []live.Op{{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: 900001, Loc: geom.Pt(math.NaN(), 1)}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(walHeader(0), nan...))

	in := filepath.Join(dir, "input")
	f.Fuzz(func(t *testing.T, wal []byte) {
		if err := os.RemoveAll(in); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(in, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(in, packFile), pack, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(in, walFile), wal, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		db, err := st.OpenLive(func() *lbs.Database {
			t.Fatal("gen called with a pack present")
			return nil
		}, lbs.Options{K: 5}, live.Options{CompactThreshold: -1})
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("open error %T (%v), want *CorruptError", err, err)
			}
			return
		}
		defer st.Live().Close()
		snap, _ := db.SnapshotAt()
		for i := 0; i < snap.Len(); i++ {
			for _, p := range []geom.Point{snap.Tuple(i).Loc, snap.EffectiveLoc(i)} {
				if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
					t.Fatalf("recovered tuple %d at non-finite %v", snap.Tuple(i).ID, p)
				}
			}
		}
	})
}

// walHeader is the header of a WAL whose checkpoint epoch is ckpt.
func walHeader(ckpt uint64) []byte {
	h := binary.LittleEndian.AppendUint64([]byte(walMagic), ckpt)
	return binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(h))
}

// walFrameOf frames a payload with its length and checksum.
func walFrameOf(payload []byte) []byte {
	fr := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	fr = binary.LittleEndian.AppendUint32(fr, crc32.ChecksumIEEE(payload))
	return append(fr, payload...)
}

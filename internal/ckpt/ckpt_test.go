package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"path/filepath"
	"reflect"
	"testing"

	"parapre/internal/dist"
	"parapre/internal/krylov"
)

// testCheckpoint builds a checkpoint exercising the full wire surface:
// a GMRES-shaped rank (ragged V/Z, counters), a CG-shaped rank (R/P/RZ,
// no basis), and a rank with nil optional fields.
func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		Seq:  7,
		Iter: 35,
		Ranks: []RankState{
			{
				Rank: 0,
				Solver: &krylov.State{
					Method: "FGMRES", N: 5, M: 4, Iter: 35, Restarts: 8, J: 3,
					Ref: 1.5e-3, Initial: 2.25, PrecondID: "Schur 1",
					X:  []float64{1, 2, 3, 4, 5},
					V:  [][]float64{{1, 0, 0, 0, 0}, {0, 1, 0, 0, 0}, {0, 0, 1, 0, 0}, {0, 0, 0, 1, 0}},
					Z:  [][]float64{{0.5, 0.5, 0, 0, 0}, {0, 0.5, 0.5, 0, 0}, {0, 0, 0.5, 0.5, 0}},
					H:  []float64{2, 1, 0, 1, 2, 1, 0, 1, 2, 0, 0, 1},
					Cs: []float64{0.8, 0.6, 0.9}, Sn: []float64{0.6, 0.8, 0.1},
					G:       []float64{1e-2, -3e-3, 4e-4, 5e-5},
					History: []float64{2.25, 1.1, 0.3, 0.05},
				},
				Stats: dist.Stats{
					Rank: 0, Clock: 1.25, ComputeTime: 1.0, CommTime: 0.2,
					FaultDelay: 0.05, Flops: 1e8, MsgsSent: 120, BytesSent: 88000,
				},
				FaultDraws: 17, FaultOps: 5,
				Counters: map[string]float64{"spmv": 35, "dot": 70, "axpy": 105},
			},
			{
				Rank: 1,
				Solver: &krylov.State{
					Method: "CG", N: 4, Iter: 35, Initial: 3.5, PrecondID: "Block 1",
					X: []float64{-1, -2, -3, -4}, R: []float64{1e-3, 2e-3, -1e-3, 0},
					P: []float64{0.1, 0.2, 0.3, 0.4}, RZ: 6.5e-6,
				},
				Stats: dist.Stats{Rank: 1, Clock: 1.25, ComputeTime: 1.1, CommTime: 0.15},
			},
			{
				Rank:  2,
				Stats: dist.Stats{Rank: 2, Clock: 1.25},
			},
		},
	}
}

func TestEncodeDecodeEncodeByteStable(t *testing.T) {
	ck := testCheckpoint()
	enc1 := Encode(ck)
	dec, err := Decode(enc1)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(ck, dec) {
		t.Fatalf("decoded checkpoint differs from original:\n got %+v\nwant %+v", dec, ck)
	}
	enc2 := Encode(dec)
	if !bytes.Equal(enc1, enc2) {
		t.Fatalf("encode→decode→encode not byte-stable: %d vs %d bytes", len(enc1), len(enc2))
	}
}

func TestDecodeEveryTruncationFails(t *testing.T) {
	enc := Encode(testCheckpoint())
	for n := 0; n < len(enc); n++ {
		_, err := Decode(enc[:n])
		if err == nil {
			t.Fatalf("Decode of %d-byte prefix (of %d) succeeded", n, len(enc))
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("prefix %d: error %T, want *CorruptError", n, err)
		}
	}
}

func TestDecodeBitFlipsFail(t *testing.T) {
	enc := Encode(testCheckpoint())
	for off := 0; off < len(enc); off += 7 { // sample every 7th byte
		mut := append([]byte(nil), enc...)
		mut[off] ^= 0x40
		_, err := Decode(mut)
		if err == nil {
			t.Fatalf("flip at byte %d decoded cleanly", off)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("flip at byte %d: error %T (%v), want *CorruptError", off, err, err)
		}
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	enc := Encode(testCheckpoint())
	// Bump the version field and re-seal the checksum so the skew — not
	// the corruption — is what Decode reports.
	mut := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint32(mut[4:], Version+1)
	body := mut[:len(mut)-8]
	binary.LittleEndian.PutUint64(mut[len(mut)-8:], crc64.Checksum(body, crcTable))
	_, err := Decode(mut)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("error %T (%v), want *VersionError", err, err)
	}
	if ve.Got != Version+1 || ve.Want != Version {
		t.Fatalf("VersionError %+v, want got=%d want=%d", ve, Version+1, Version)
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	enc := Encode(testCheckpoint())
	// Splice garbage between payload and trailer, resealing the checksum:
	// structurally valid framing, but bytes the payload does not account for.
	mut := append([]byte(nil), enc[:len(enc)-8]...)
	mut = append(mut, 0xde, 0xad)
	sum := crc64.Checksum(mut, crcTable)
	mut = binary.LittleEndian.AppendUint64(mut, sum)
	_, err := Decode(mut)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T (%v), want *CorruptError", err, err)
	}
}

func TestFileWriterAssemblesAndLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "solve.ckpt")
	ck := testCheckpoint()
	w := NewFileWriter(path, ck.P())

	// Deliver the shards out of rank order; nothing must hit disk until
	// the sequence is complete.
	order := []int{2, 0, 1}
	for i, r := range order {
		if err := w.PutShard(ck.Seq, ck.Iter, ck.P(), &ck.Ranks[r]); err != nil {
			t.Fatalf("PutShard rank %d: %v", r, err)
		}
		if i < len(order)-1 {
			if _, err := Load(path); err == nil {
				t.Fatalf("checkpoint file exists after %d of %d shards", i+1, len(order))
			}
		}
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Fatalf("loaded checkpoint differs from written one")
	}

	// A later sequence atomically replaces the file.
	ck2 := testCheckpoint()
	ck2.Seq, ck2.Iter = 8, 40
	for r := range ck2.Ranks {
		if err := w.PutShard(ck2.Seq, ck2.Iter, ck2.P(), &ck2.Ranks[r]); err != nil {
			t.Fatalf("PutShard seq 8 rank %d: %v", r, err)
		}
	}
	got2, err := Load(path)
	if err != nil {
		t.Fatalf("Load after overwrite: %v", err)
	}
	if got2.Seq != 8 || got2.Iter != 40 {
		t.Fatalf("file holds seq=%d iter=%d, want 8/40", got2.Seq, got2.Iter)
	}
}

func TestFileWriterRejectsBadShards(t *testing.T) {
	path := filepath.Join(t.TempDir(), "solve.ckpt")
	w := NewFileWriter(path, 2)
	rs := &RankState{Rank: 0}
	if err := w.PutShard(1, 1, 3, rs); err == nil {
		t.Fatal("shard with wrong world size accepted")
	}
	// The writer latches its first error.
	if err := w.PutShard(1, 1, 2, rs); err == nil {
		t.Fatal("writer did not latch the earlier failure")
	}

	w2 := NewFileWriter(path, 2)
	if err := w2.PutShard(1, 1, 2, &RankState{Rank: 5}); err == nil {
		t.Fatal("shard with out-of-range rank accepted")
	}
}

func TestLoadMissingFileIsPathError(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.ckpt"))
	if err == nil {
		t.Fatal("Load of missing file succeeded")
	}
	var ce *CorruptError
	var ve *VersionError
	if errors.As(err, &ce) || errors.As(err, &ve) {
		t.Fatalf("missing file reported as codec error %v; want plain *os.PathError", err)
	}
}

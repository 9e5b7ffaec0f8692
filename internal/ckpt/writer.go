package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// FileWriter is the in-process Sink: it collects the P per-rank shards of
// each checkpoint sequence and, once a sequence is complete, writes the
// assembled checkpoint to its path atomically (write to a temp file in
// the same directory, fsync, rename). A reader therefore always sees
// either the previous complete checkpoint or the new one — never a torn
// file — which is what makes SIGKILL at any instant recoverable.
//
// Shards may arrive in any rank order (the rank goroutines race to the
// sink); sequences complete in order because checkpoints are taken at
// replicated iteration counts.
type FileWriter struct {
	path string
	p    int

	mu      sync.Mutex
	pending map[uint64]*pendingSeq
	lastSeq uint64 // highest sequence persisted
	err     error  // first write failure, latched
}

type pendingSeq struct {
	iter   uint64
	shards []*RankState
	got    int
}

// NewFileWriter creates a sink persisting complete P-rank checkpoints to
// path.
func NewFileWriter(path string, p int) *FileWriter {
	return &FileWriter{path: path, p: p, pending: make(map[uint64]*pendingSeq)}
}

// PutShard registers one rank's shard of checkpoint sequence seq. The
// final shard of a sequence triggers the atomic write; its error (and any
// earlier latched write error) is returned to the caller.
func (w *FileWriter) PutShard(seq, iter uint64, p int, rs *RankState) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if p != w.p {
		w.err = fmt.Errorf("ckpt: shard for world size %d on a %d-rank writer", p, w.p)
		return w.err
	}
	ps, ok := w.pending[seq]
	if !ok {
		ps = &pendingSeq{iter: iter, shards: make([]*RankState, w.p)}
		w.pending[seq] = ps
	}
	if rs.Rank < 0 || rs.Rank >= w.p {
		w.err = fmt.Errorf("ckpt: shard rank %d outside world [0,%d)", rs.Rank, w.p)
		return w.err
	}
	if ps.shards[rs.Rank] == nil {
		ps.got++
	}
	ps.shards[rs.Rank] = rs
	if ps.got < w.p {
		return nil
	}
	delete(w.pending, seq)
	ck := &Checkpoint{Seq: seq, Iter: ps.iter, Ranks: make([]RankState, w.p)}
	for i, sh := range ps.shards {
		ck.Ranks[i] = *sh
	}
	if err := WriteFile(w.path, ck); err != nil {
		w.err = err
		return err
	}
	w.lastSeq = seq
	return nil
}

// WriteFile persists one checkpoint atomically: encode, write to a
// same-directory temp file, fsync, rename over path.
func WriteFile(path string, ck *Checkpoint) error {
	data := Encode(ck)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // the write error wins; cleanup is best-effort
		_ = os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close() // the sync error wins; cleanup is best-effort
		_ = os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return err
	}
	return nil
}

// Load reads and decodes a checkpoint file. Decoding failures carry the
// typed *CorruptError / *VersionError of Decode; a missing file surfaces
// as the ordinary *os.PathError so callers can distinguish "no checkpoint
// yet" from "checkpoint damaged".
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

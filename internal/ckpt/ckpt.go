// Package ckpt gives the distributed solver a durable checkpoint/restart
// story: periodic deep snapshots of every rank's solver recurrence
// (package krylov), virtual-time accounting, fault-plan RNG cursor and
// observability counters, serialized with a versioned, checksummed binary
// codec and persisted by atomic write-rename — so a solve killed mid-flight
// (a killed process, a lost node) resumes from the last checkpoint and
// replays the exact arithmetic of the uninterrupted run.
//
// The format is deliberately self-contained and paranoid on the read side:
// Decode never panics on hostile bytes; truncated, corrupted or
// version-skewed files surface as typed *CorruptError / *VersionError, and
// the encoding is canonical (map entries sorted, nil and empty slices
// distinguished consistently) so encode→decode→encode is byte-stable —
// the property the round-trip tests and the fuzz target pin down.
package ckpt

import (
	"fmt"

	"parapre/internal/dist"
	"parapre/internal/krylov"
)

// Magic is the four-byte file signature, "PCKP".
var Magic = [4]byte{'P', 'C', 'K', 'P'}

// Version is the current format version written by Encode.
const Version uint32 = 1

// RankState is one rank's shard of a global checkpoint: everything the
// rank needs to rejoin the solve exactly where the world stopped.
type RankState struct {
	Rank int

	// Solver is the deep krylov recurrence snapshot. It is non-nil in
	// every checkpoint the solver writes; the codec tolerates its absence
	// for forward flexibility.
	Solver *krylov.State

	// Stats is the rank's virtual-time accounting at the snapshot, so the
	// restored run's Clock = ComputeTime + CommTime + FaultDelay partition
	// covers the whole logical solve, not just the post-restore part.
	Stats dist.Stats

	// FaultDraws/FaultOps is the fault-plan RNG cursor (dist.FaultCursor):
	// the restore fast-forwards the stream so the resumed solve sees
	// exactly the faults the uninterrupted run would have seen.
	FaultDraws uint64
	FaultOps   uint64

	// Counters is the rank's observability counter snapshot (nil when
	// tracing is off).
	Counters map[string]float64
}

// Checkpoint is a globally consistent snapshot: all P ranks captured at
// the same replicated solver iteration.
type Checkpoint struct {
	Seq   uint64      // monotone checkpoint number within the solve
	Iter  uint64      // replicated solver iteration the snapshot was taken at
	Ranks []RankState // exactly P shards, in rank order
}

// P returns the world size of the checkpoint.
func (c *Checkpoint) P() int { return len(c.Ranks) }

// CorruptError reports a checkpoint file whose bytes do not decode: bad
// magic, a failed checksum, a truncation, or an internal inconsistency.
// Offset is the byte position at which decoding gave up (-1 when the
// failure is not positional, e.g. a checksum mismatch).
type CorruptError struct {
	Reason string
	Offset int64
}

func (e *CorruptError) Error() string {
	if e.Offset >= 0 {
		return fmt.Sprintf("ckpt: corrupt checkpoint at byte %d: %s", e.Offset, e.Reason)
	}
	return "ckpt: corrupt checkpoint: " + e.Reason
}

// VersionError reports a checkpoint written by an incompatible format
// version.
type VersionError struct {
	Got  uint32
	Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("ckpt: checkpoint format version %d, this build reads version %d", e.Got, e.Want)
}

// Sink receives per-rank checkpoint shards. The solver side calls
// PutShard once per rank per checkpoint; a sink that has collected all P
// shards of a sequence persists them as one atomic checkpoint. FileWriter
// is the implementation that writes files.
type Sink interface {
	PutShard(seq, iter uint64, p int, rs *RankState) error
}

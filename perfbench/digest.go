package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"chatfuzz/internal/core"
	"chatfuzz/internal/farm"
)

// trajectoryDigest hashes a merged trajectory point by point: tests,
// then the exact bits of virtual hours and coverage.
func trajectoryDigest(traj []core.ProgressPoint) string {
	h := sha256.New()
	var b [24]byte
	for _, p := range traj {
		binary.LittleEndian.PutUint64(b[0:], uint64(p.Tests))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Hours))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(p.Coverage))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// reportsDigest hashes a farm job's round reports exactly as
// trajectoryDigest hashes the orchestrator's trajectory, so a farm
// job and a direct run of the same spec compare.
func reportsDigest(reps []farm.RoundReport) string {
	traj := make([]core.ProgressPoint, len(reps))
	for i, r := range reps {
		traj[i] = core.ProgressPoint{Tests: r.Tests, Hours: r.Hours, Coverage: r.Coverage}
	}
	return trajectoryDigest(traj)
}

// weightsDigest hashes a weight vector's exact bits.
func weightsDigest(w []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range w {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

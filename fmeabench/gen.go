package main

import (
	"repro/internal/serve"
	"repro/internal/xrand"
)

// The served-fmea traffic mix: validate-off FMEA submissions over the
// four designs, the memory address widths the memory sub-system
// builds, the grading knobs and four workload sizes. Every combination
// is a distinct cache key; the grading knobs change the key but not
// the work, the design and width change the work.
var (
	genDesigns    = []string{"v1", "v2", "cpu", "cpu-lockstep"}
	genAddrWidths = []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	genTargetSILs = []int{1, 2, 3, 4}
	genHFTs       = []int{0, 1, 2}
	genTolerances = []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55}
	genWords      = []int{8, 16, 32, 64}
)

// Each block of genBlock submissions holds genRepeats repeats of a key
// the same client submitted among its last genWindow fresh keys, so
// the intended cache-hit share is genRepeats/genBlock. The share stays
// below one half on purpose: the latency median then lies among the
// misses instead of on the edge between hits and misses.
const (
	genBlock   = 5
	genRepeats = 2
	genWindow  = 8
)

func intendedHitShare() float64 { return float64(genRepeats) / genBlock }

// submissionPool enumerates every distinct submission of the mix. The
// fields normalization would fill are set explicitly, so a
// submission's Key is the key the daemon computes for it.
func submissionPool() []serve.Submission {
	var pool []serve.Submission
	for _, d := range genDesigns {
		for _, aw := range genAddrWidths {
			for _, sil := range genTargetSILs {
				for _, hft := range genHFTs {
					for _, tol := range genTolerances {
						for _, w := range genWords {
							pool = append(pool, serve.Submission{
								Design: d, AddrWidth: aw, Words: w,
								Transient: 1, Permanent: 1, Wide: 16, Seed: 1,
								TargetSIL: sil, HFT: hft, Tolerance: tol,
							})
						}
					}
				}
			}
		}
	}
	return pool
}

// stream is one closed-loop client's submission sequence. Clients draw
// fresh keys from disjoint slices of one seeded permutation of the
// pool, so a fresh key is a miss, and repeat only keys they submitted
// themselves, so a repeat finds its key finished and cached.
type stream struct {
	rng    *xrand.RNG
	fresh  []serve.Submission
	recent []serve.Submission
	block  []bool // repeat flags of the current block
}

// newStreams builds the per-client streams for a seed.
func newStreams(seed uint64, clients int) []*stream {
	pool := submissionPool()
	rng := xrand.New(seed)
	for i := len(pool) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}
	out := make([]*stream, clients)
	for c := range out {
		s := &stream{rng: xrand.New(seed*uint64(clients+1) + uint64(c) + 1)}
		for i := c; i < len(pool); i += clients {
			s.fresh = append(s.fresh, pool[i])
		}
		out[c] = s
	}
	return out
}

// next returns the client's next submission and whether it repeats an
// earlier key; ok is false once the fresh keys run out.
func (s *stream) next() (sub serve.Submission, repeat, ok bool) {
	if len(s.block) == 0 {
		// The first slot of a block is always fresh, so every repeat
		// has an earlier fresh key to repeat.
		s.block = make([]bool, genBlock)
		for placed := 0; placed < genRepeats; {
			if i := 1 + s.rng.Intn(genBlock-1); !s.block[i] {
				s.block[i] = true
				placed++
			}
		}
	}
	repeat, s.block = s.block[0], s.block[1:]
	if repeat {
		return s.recent[s.rng.Intn(len(s.recent))], true, true
	}
	if len(s.fresh) == 0 {
		return serve.Submission{}, false, false
	}
	sub, s.fresh = s.fresh[0], s.fresh[1:]
	s.recent = append(s.recent, sub)
	if len(s.recent) > genWindow {
		s.recent = s.recent[1:]
	}
	return sub, false, true
}

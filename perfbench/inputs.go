package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"gobeagle/internal/seqgen"
	"gobeagle/internal/serve"
	"gobeagle/internal/substmodel"
	"gobeagle/internal/tree"
)

// Everything the program under test receives is generated here from the
// seed: trees, model parameters, site patterns, branch-length cycles,
// sampler seeds and request bodies. Workloads read only these structs.

// Fixed workload shapes (see README.md).
const (
	mcmcTips, mcmcPatterns   = 64, 1024
	codonTips, codonPatterns = 32, 1024
	shardTips, shardPatterns = 24, 4096
	serveTips, serveSites    = 16, 128
	gammaCategories          = 4
	lengthCycle              = 8  // branch-length sets a peel workload cycles through
	servePool                = 64 // distinct served requests
)

// peelInputs is one tree-likelihood problem plus a cycle of branch-length
// sets: evaluation i uses Lengths[i%len(Lengths)], so consecutive full
// evaluations recompute every transition matrix.
type peelInputs struct {
	Newick     string
	StateCount int
	Kappa      float64
	Omega      float64 // codon only
	Freqs      []float64
	Alpha      float64
	Patterns   [][]int // [pattern][tip]
	Lengths    [][]float64
}

// mcmcInputs is the MC3 data set and the sampler's seed.
type mcmcInputs struct {
	Newick      string
	Kappa       float64
	Freqs       []float64
	Alpha       float64
	Patterns    [][]int
	SamplerSeed int64
}

// serveInputs is the pool of distinct request bodies and the seed of the
// Poisson arrival schedule.
type serveInputs struct {
	Requests     []servedRequest
	ArrivalsSeed int64
}

type servedRequest struct {
	ID   string
	Body []byte
}

func randomFreqs(rng *rand.Rand, n int) []float64 {
	f := make([]float64, n)
	var s float64
	for i := range f {
		f[i] = 0.5 + rng.Float64()
		s += f[i]
	}
	for i := range f {
		f[i] /= s
	}
	return f
}

func randomNewick(rng *rand.Rand, tips int) (string, error) {
	t, err := tree.Random(rng, tips, 0.1)
	if err != nil {
		return "", err
	}
	return t.Newick(), nil
}

// balancedNewick builds a perfectly balanced tree over tips t0…t(n-1) in
// seeded order with exponential branch lengths (mean 0.1). The MC3
// workload starts from it so every seed walks proposals of the same depth.
func balancedNewick(rng *rand.Rand, tips int) string {
	perm := rng.Perm(tips)
	var b strings.Builder
	var build func(lo, hi int)
	build = func(lo, hi int) {
		if hi-lo == 1 {
			fmt.Fprintf(&b, "t%d", perm[lo])
		} else {
			mid := (lo + hi) / 2
			b.WriteByte('(')
			build(lo, mid)
			fmt.Fprintf(&b, ":%g,", 0.01+rng.ExpFloat64()*0.1)
			build(mid, hi)
			fmt.Fprintf(&b, ":%g)", 0.01+rng.ExpFloat64()*0.1)
		}
	}
	build(0, tips)
	b.WriteByte(';')
	return b.String()
}

func randomPatterns(rng *rand.Rand, tips, states, n int) ([][]int, error) {
	ps, err := seqgen.RandomPatterns(rng, tips, states, n)
	if err != nil {
		return nil, err
	}
	return ps.Patterns, nil
}

func lengthCycles(rng *rand.Rand, nodes int) [][]float64 {
	out := make([][]float64, lengthCycle)
	for i := range out {
		out[i] = make([]float64, nodes)
		for j := range out[i] {
			out[i][j] = 0.01 + 0.2*rng.Float64()
		}
	}
	return out
}

func genPeel(seed int64, tips, states, patterns int) (*peelInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	nw, err := randomNewick(rng, tips)
	if err != nil {
		return nil, err
	}
	in := &peelInputs{
		Newick:     nw,
		StateCount: states,
		Kappa:      1.5 + 2*rng.Float64(),
		Alpha:      0.3 + rng.Float64(),
		Freqs:      randomFreqs(rng, states),
	}
	if states == substmodel.CodonStates {
		in.Omega = 0.1 + 0.8*rng.Float64()
	}
	if in.Patterns, err = randomPatterns(rng, tips, states, patterns); err != nil {
		return nil, err
	}
	in.Lengths = lengthCycles(rng, 2*tips-1)
	return in, nil
}

func genCodon(seed int64) (*peelInputs, error) {
	return genPeel(seed, codonTips, substmodel.CodonStates, codonPatterns)
}

func genShard(seed int64) (*peelInputs, error) { return genPeel(seed, shardTips, 4, shardPatterns) }

func genMCMC(seed int64) (*mcmcInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &mcmcInputs{
		Newick: balancedNewick(rng, mcmcTips),
		Kappa:  1.5 + 2*rng.Float64(),
		Alpha:  0.3 + rng.Float64(),
		Freqs:  randomFreqs(rng, 4),
	}
	var err error
	if in.Patterns, err = randomPatterns(rng, mcmcTips, 4, mcmcPatterns); err != nil {
		return nil, err
	}
	in.SamplerSeed = rng.Int63()
	return in, nil
}

// genServe builds servePool distinct HKY85+Γ4 requests, each with its own
// tree, alignment, κ and α.
func genServe(seed int64) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{}
	const bases = "ACGT"
	for i := 0; i < servePool; i++ {
		nw, err := randomNewick(rng, serveTips)
		if err != nil {
			return nil, err
		}
		t, err := tree.ParseNewick(nw)
		if err != nil {
			return nil, err
		}
		seqs := make(map[string]string, serveTips)
		buf := make([]byte, serveSites)
		for _, tip := range t.Tips() {
			for s := range buf {
				buf[s] = bases[rng.Intn(4)]
			}
			seqs[tip.Name] = string(buf)
		}
		id := fmt.Sprintf("pb-%d-%d", seed, i)
		req := serve.EvaluateRequest{
			RequestID: id,
			Newick:    nw,
			Model: serve.ModelSpec{Type: "HKY85", Kappa: 1.5 + 2*rng.Float64(),
				Frequencies: randomFreqs(rng, 4)},
			Gamma:     &serve.GammaSpec{Alpha: 0.3 + rng.Float64(), Categories: gammaCategories},
			Sequences: seqs,
		}
		body, err := json.Marshal(&req)
		if err != nil {
			return nil, err
		}
		in.Requests = append(in.Requests, servedRequest{ID: id, Body: body})
	}
	in.ArrivalsSeed = rng.Int63()
	return in, nil
}

// Corpus specs and manifests.
//
// A Spec names a corpus: axis grids, a seed, and an optional sample
// size. Compile expands the grid deterministically, samples it with the
// spec's seed, generates every program, and produces a Manifest — the
// durable record of the corpus — carrying a fleet-style fingerprint
// over the per-program records. Two machines compiling the same spec
// get byte-identical manifests and byte-identical program sources; the
// CI corpus-gate enforces this with a two-invocation comparison.
package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// Axes are the per-axis value grids a Spec sweeps. Empty axes take the
// single default in parentheses.
type Axes struct {
	NestDepth     []int     `json:"nest_depth,omitempty"`     // (1)
	Dep           []string  `json:"dep,omitempty"`            // (independent)
	DepDistance   []int     `json:"dep_distance,omitempty"`   // (1) distance kind only
	Iterations    []int     `json:"iterations,omitempty"`     // (64)
	BodyOps       []int     `json:"body_ops,omitempty"`       // (4)
	BranchDensity []float64 `json:"branch_density,omitempty"` // (0)
	Call          []bool    `json:"call,omitempty"`           // (false)
	Alias         []bool    `json:"alias,omitempty"`          // (false)
}

// Spec is the JSON-loadable definition of a named corpus.
type Spec struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Size > 0 deterministically samples that many programs from the
	// expanded grid; 0 keeps the full grid.
	Size int  `json:"size,omitempty"`
	Axes Axes `json:"axes"`
}

// Entry is one program's record in a manifest: everything needed to
// regenerate and verify it.
type Entry struct {
	ID     string `json:"id"`
	Params Params `json:"params"`
	SHA256 string `json:"sha256"`
	Band   Band   `json:"band"`
}

// Manifest is a compiled corpus.
type Manifest struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Fingerprint is a SHA-256 over every program record; equal
	// fingerprints mean byte-identical corpora.
	Fingerprint string  `json:"fingerprint"`
	Programs    []Entry `json:"programs"`
}

// ParseSpec decodes a JSON spec strictly: unknown fields are errors, so
// a typo'd axis name fails fast instead of silently sweeping nothing.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("corpus: spec: %w", err)
	}
	if s.Name == "" {
		return Spec{}, fmt.Errorf("corpus: spec: name: must be non-empty")
	}
	if s.Size < 0 {
		return Spec{}, fmt.Errorf("corpus: spec: size: must be >= 0 (got %d)", s.Size)
	}
	return s, nil
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func orInts(v []int, d int) []int {
	if len(v) == 0 {
		return []int{d}
	}
	return v
}

func orFloats(v []float64, d float64) []float64 {
	if len(v) == 0 {
		return []float64{d}
	}
	return v
}

func orBools(v []bool) []bool {
	if len(v) == 0 {
		return []bool{false}
	}
	return v
}

// grid expands the spec's axes into the full parameter cross product,
// in a fixed axis order. The distance dependence kind multiplies by the
// DepDistance axis; independent and reduction appear once each with
// DepDistance 0.
func (s Spec) grid() ([]Params, error) {
	deps := s.Axes.Dep
	if len(deps) == 0 {
		deps = []string{DepIndependent}
	}
	type depInst struct {
		kind string
		dist int
	}
	var insts []depInst
	for _, d := range deps {
		if d == DepDistance {
			for _, k := range orInts(s.Axes.DepDistance, 1) {
				insts = append(insts, depInst{d, k})
			}
		} else {
			insts = append(insts, depInst{d, 0})
		}
	}

	var out []Params
	for _, nest := range orInts(s.Axes.NestDepth, 1) {
		for _, di := range insts {
			for _, iters := range orInts(s.Axes.Iterations, 64) {
				for _, ops := range orInts(s.Axes.BodyOps, 4) {
					for _, bd := range orFloats(s.Axes.BranchDensity, 0) {
						for _, call := range orBools(s.Axes.Call) {
							for _, alias := range orBools(s.Axes.Alias) {
								p := Params{
									NestDepth:     nest,
									Dep:           di.kind,
									DepDistance:   di.dist,
									Iterations:    iters,
									BodyOps:       ops,
									BranchDensity: bd,
									Call:          call,
									Alias:         alias,
								}
								if err := p.Validate(); err != nil {
									return nil, err
								}
								out = append(out, p)
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// Compile expands, samples, and generates the corpus. The returned
// programs parallel Manifest.Programs index for index.
func Compile(s Spec) (*Manifest, []*Program, error) {
	grid, err := s.grid()
	if err != nil {
		return nil, nil, err
	}
	if len(grid) == 0 {
		return nil, nil, fmt.Errorf("corpus: spec %q: empty grid", s.Name)
	}

	idx := make([]int, len(grid))
	for i := range idx {
		idx[i] = i
	}
	if s.Size > 0 && s.Size < len(grid) {
		// Seeded Fisher–Yates, take the first Size, restore grid order so
		// the manifest reads in axis order.
		r := newRNG(splitmix(s.Seed))
		for i := len(idx) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			idx[i], idx[j] = idx[j], idx[i]
		}
		idx = idx[:s.Size]
		sort.Ints(idx)
	}

	m := &Manifest{Name: s.Name, Seed: s.Seed}
	progs := make([]*Program, 0, len(idx))
	for n, gi := range idx {
		p := grid[gi]
		// The per-program seed depends on the grid position, not the
		// sample position, so a program keeps its bytes when the sample
		// size changes.
		p.Seed = splitmix(s.Seed ^ uint64(gi)*0x9e3779b97f4a7c15)
		prog, err := Generate(p)
		if err != nil {
			return nil, nil, fmt.Errorf("corpus: spec %q program %d: %w", s.Name, gi, err)
		}
		progs = append(progs, prog)
		m.Programs = append(m.Programs, Entry{
			ID:     fmt.Sprintf("%s-%04d", s.Name, n),
			Params: prog.Params,
			SHA256: prog.SHA256,
			Band:   prog.Band,
		})
	}
	m.Fingerprint = fingerprint(m.Programs)
	return m, progs, nil
}

// fingerprint hashes every program record, NUL-separated fields, in
// manifest order — the loadgen schedule-fingerprint idiom.
func fingerprint(entries []Entry) string {
	h := sha256.New()
	for _, e := range entries {
		params, _ := json.Marshal(e.Params)
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%.4f\x00%.4f\x00%s\x00",
			e.ID, e.SHA256, params, e.Band.Lo, e.Band.Hi, e.Band.Class)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Regenerate rebuilds one entry's program from its parameters and
// verifies the source hash, catching generator drift against an older
// manifest.
func (e Entry) Regenerate() (*Program, error) {
	p, err := Generate(e.Params)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", e.ID, err)
	}
	if p.SHA256 != e.SHA256 {
		return nil, fmt.Errorf("corpus: %s: source hash %s does not match manifest %s (generator drift?)",
			e.ID, p.SHA256[:12], e.SHA256[:12])
	}
	return p, nil
}

// ParseManifest decodes a manifest and re-verifies its fingerprint.
func ParseManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("corpus: manifest: %w", err)
	}
	if got := fingerprint(m.Programs); got != m.Fingerprint {
		return nil, fmt.Errorf("corpus: manifest %q: fingerprint %s does not match records (%s)",
			m.Name, short(m.Fingerprint), short(got))
	}
	return &m, nil
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	if s == "" {
		return "<empty>"
	}
	return s
}

// Encode renders the manifest as stable, indented JSON.
func (m *Manifest) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DefaultSpec is the 500-program corpus the experiments ablation and
// the acceptance gate run: every axis swept, sampled from a ~4000-point
// grid.
func DefaultSpec() Spec {
	return Spec{
		Name: "default",
		Seed: 1,
		Size: 500,
		Axes: Axes{
			NestDepth:     []int{1, 2, 3},
			Dep:           []string{DepIndependent, DepReduction, DepDistance},
			DepDistance:   []int{1, 2, 3, 4, 8},
			Iterations:    []int{16, 64, 256, 512},
			BodyOps:       []int{1, 4, 8, 12},
			BranchDensity: []float64{0, 0.5, 1},
			Call:          []bool{false, true},
			Alias:         []bool{false, true},
		},
	}
}

// SmokeSpec is the 200-program corpus CI's corpus-gate uses: the same
// axes at coarser resolution, small enough to round-trip and profile in
// seconds.
func SmokeSpec() Spec {
	return Spec{
		Name: "smoke",
		Seed: 7,
		Size: 200,
		Axes: Axes{
			NestDepth:     []int{1, 2},
			Dep:           []string{DepIndependent, DepReduction, DepDistance},
			DepDistance:   []int{1, 2, 4},
			Iterations:    []int{16, 128},
			BodyOps:       []int{2, 8},
			BranchDensity: []float64{0, 1},
			Call:          []bool{false, true},
			Alias:         []bool{false, true},
		},
	}
}

// SpecByName resolves the built-in corpus names.
func SpecByName(name string) (Spec, bool) {
	switch name {
	case "default":
		return DefaultSpec(), true
	case "smoke":
		return SmokeSpec(), true
	}
	return Spec{}, false
}

// FuzzSeeds returns the stratified seed programs for FuzzVMDiff: every
// dependence kind and distance regime, shallow and deep nests, with
// calls and branch-gated bodies on so call boundaries and conditional
// control flow are in every seed's path.
func FuzzSeeds() []*Program {
	kinds := []struct {
		dep  string
		dist int
	}{
		{DepIndependent, 0},
		{DepReduction, 0},
		{DepDistance, 1},
		{DepDistance, 2},
		{DepDistance, 8},
	}
	var out []*Program
	for _, k := range kinds {
		for _, nest := range []int{1, 3} {
			p := Params{
				Seed:          splitmix(uint64(nest)<<8 | uint64(k.dist)<<4 | uint64(len(k.dep))),
				NestDepth:     nest,
				Dep:           k.dep,
				DepDistance:   k.dist,
				Iterations:    16,
				BodyOps:       3,
				BranchDensity: 0.5,
				Call:          true,
				Alias:         true,
			}
			prog, err := Generate(p)
			if err != nil {
				panic(err) // static parameters; cannot fail
			}
			out = append(out, prog)
		}
	}
	return out
}

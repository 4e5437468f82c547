package service

import (
	"bytes"
	"math"
	"testing"

	"jrpm"
	"jrpm/internal/session"
)

// FuzzJobRequest: decoding and validating a POST /v1/jobs body never
// panics, and every request it accepts has a finite scale within
// [0, MaxScale], so no accepted body can make the submit handler build
// an input without bound.
func FuzzJobRequest(f *testing.F) {
	for _, body := range []string{
		`{"workload":"Huffman","scale":0.2}`,
		`{"workload": "Huffman", "scale": 0.2, "sample_period": 8192}`,
		`{}`,
		`{"workload":"NoSuchBenchmark"}`,
		`{"workload":"Huffman","source":"int main() {}"}`,
		`{"bogus_field":1}`,
		`{"workload":"BitOps","sample_period":17}`,
		`{"workload":"BitOps","sample_period":-1}`,
		`{"workload":"euler","scale":1e9}`,
		`{"workload":"euler","scale":1e300}`,
		`{"workload":"euler","scale":1000}`,
		`{"workload":"euler","scale":-1}`,
		`{"source":"func main() { ret 0 }","scale":16}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(bytes.NewReader(body))
		if err != nil || req.validate() != nil {
			return
		}
		if math.IsNaN(req.Scale) || req.Scale < 0 || req.Scale > MaxScale {
			t.Fatalf("accepted scale %v", req.Scale)
		}
	})
}

// FuzzSessionRequest: decoding and validating a POST /v1/sessions body
// never panics, and every request it accepts has non-negative bounds
// and a finite scale within [0, MaxScale] — with jitter, for every
// epoch's drawn scale too, since each epoch builds its input at its own
// draw.
func FuzzSessionRequest(f *testing.F) {
	for _, body := range []string{
		`{"workload":"Huffman","scale":16,"jitter":true}`, // drew epoch scales up to 18.4
		`{"workload":"Huffman","scale":13.9,"jitter":true,"seed":7}`,
		`{"workload":"BitOps","scale":0.35,"epochs":8}`,
		`{"workload":"BitOps","jitter":true}`,
		`{"workload":"BitOps","epochs":-1}`,
		`{"workload":"BitOps","cycle_budget":-5}`,
		`{"workload":"BitOps","thresholds":{"promote_streak":1}}`,
		`{"workload":"euler","scale":1e9,"jitter":true}`,
		`{"workload":"euler","scale":-1,"jitter":true}`,
		`{"source":"func main() { ret 0 }","jitter":true}`,
		`{"bogus_field":1}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeSessionRequest(bytes.NewReader(body))
		if err != nil || req.validate() != nil {
			return
		}
		if req.Epochs < 0 || req.CycleBudget < 0 {
			t.Fatalf("accepted epochs %d, cycle_budget %d", req.Epochs, req.CycleBudget)
		}
		if math.IsNaN(req.Scale) || req.Scale < 0 || req.Scale > MaxScale {
			t.Fatalf("accepted scale %v", req.Scale)
		}
		if !req.Jitter {
			return
		}
		base := req.baseScale()
		if hi := session.JitterMax(base); !(hi <= MaxScale) {
			t.Fatalf("accepted jittered scale %v, whose draws reach %v", req.Scale, hi)
		}
		traffic := session.JitteredTraffic(func(scale float64) jrpm.Input {
			if !(scale >= 0 && scale <= MaxScale) {
				t.Fatalf("accepted jittered scale %v drew %v", req.Scale, scale)
			}
			return jrpm.Input{}
		}, base, req.Seed)
		for epoch := 1; epoch <= 16; epoch++ {
			traffic(epoch)
		}
	})
}

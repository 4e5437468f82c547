package loadgen

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzLoadSpec: decoding, validating and building a load spec never
// panics, and every spec Validate accepts builds a bounded schedule
// whose offsets stay within the spec's duration. The corpus field is
// cleared: it names a local manifest file, which is not the decoder
// under test.
func FuzzLoadSpec(f *testing.F) {
	for _, path := range []string{"../../specs/load_smoke.json", "../../specs/load_saturation.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, body := range []string{
		`{"name":"x","arrival":{"process":"constant","rate_per_sec":1e18,"duration_ms":1000}}`,
		`{"name":"x","arrival":{"process":"poisson","rate_per_sec":1e12,"duration_ms":1}}`,
		`{"name":"x","arrival":{"process":"poisson","rate_per_sec":1e9,"duration_ms":1}}`,
		`{"name":"x","arrival":{"process":"constant","rate_per_sec":1e-9,"duration_ms":9223372036854775807}}`,
		`{"name":"x","arrival":{"process":"ramp","steps":[{"rate_per_sec":1,"duration_ms":9223372036854},{"rate_per_sec":1,"duration_ms":9223372036854}]}}`,
		`{"name":"x","arrival":{"process":"ramp","steps":[{"rate_per_sec":5,"duration_ms":100},{"rate_per_sec":50,"duration_ms":100}]},"tenants":[{"name":"a","weight":1e308},{"name":"b","weight":1e308}],"mix":{"cold":1e308,"warm":1e308}}`,
		`{"name":"x","arrival":{"process":"constant","rate_per_sec":10,"duration_ms":100},"workloads":["NoSuchKernel"]}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var s Spec
		if json.Unmarshal(body, &s) != nil {
			return
		}
		s.Corpus = ""
		sched, err := Build(&s)
		if err != nil {
			return
		}
		if len(sched.Ops) > 2*maxOps {
			t.Fatalf("accepted spec scheduled %d requests, bound %d", len(sched.Ops), maxOps)
		}
		for _, op := range sched.Ops {
			if op.Offset < 0 || op.Offset > s.Duration() {
				t.Fatalf("op %d at %v, outside the spec's %v", op.Index, op.Offset, s.Duration())
			}
		}
	})
}

package service

import (
	"bytes"
	"math"
	"testing"
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

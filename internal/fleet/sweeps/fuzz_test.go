package sweeps

import (
	"strings"
	"testing"

	"jrpm/internal/core"
)

// FuzzSweepRequest: the POST /v1/sweeps decoder never panics, and every
// grid it accepts is runnable without an allocation hazard — traces with
// recording bytes, at least one config, every config's store tables
// within core.MaxTableLines and all its groups' tables together within
// core.MaxGridTableLines.
func FuzzSweepRequest(f *testing.F) {
	for _, body := range []string{
		`{"traces":[],"configs":[]}`,
		`{"traces":[{"name":"x"}],"configs":[{}]}`,
		`not json`,
		`{"traces":[{"name":"x","data":"AQID"}],"configs":[{}]}`,
		`{"traces":[{"name":"x","data":"AQID"}],"configs":[{"Tracer":{"LoadLineTS":274877906944}}]}`,
		`{"traces":[{"name":"x","data":"AQID"}],"configs":[{"Tracer":{"HeapStoreLines":1048577,"StoreLineTS":-1}}]}`,
	} {
		f.Add([]byte(body))
	}
	f.Add([]byte(hugeTableBody(f, "func main() {}", []byte{1, 2, 3})))
	f.Add([]byte(manyGeometriesBody(f, "func main() {}", []byte{1, 2, 3})))
	f.Fuzz(func(t *testing.T, body []byte) {
		grid, err := decodeSweepRequest(strings.NewReader(string(body)))
		if err != nil {
			return
		}
		if len(grid.Traces) == 0 || len(grid.Configs) == 0 {
			t.Fatalf("accepted an empty grid: %d traces, %d configs", len(grid.Traces), len(grid.Configs))
		}
		for i, tr := range grid.Traces {
			if len(tr.Data) == 0 {
				t.Fatalf("accepted trace %d without recording bytes", i)
			}
		}
		if err := core.CheckGrid(grid.Configs); err != nil {
			t.Fatalf("accepted a grid over the geometry bound: %v", err)
		}
	})
}

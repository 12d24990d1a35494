package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"intrawarp/internal/compaction"
	"intrawarp/internal/workloads"
)

// FuzzDecodeRequest feeds arbitrary bodies through each endpoint's
// decode and normalize, then checks what the result cache rests on. A
// normalized request keeps Workers within [0, GOMAXPROCS], normalizes to
// itself again, and echoes as key hashes it: an encoded /v1/run body's
// request decodes back to the request with Workers cleared. A sweep body
// whose size is under the cell limit expands to at most that many cells,
// each a normalized run request whose group key ignores its policy.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"bsearch"}`,
		`{"workload":"scan","size":262144,"workers":4096,"skipVerify":true}`,
		`{"workload":"bsearch","simdWidth":8,"policy":"darm","dcLinesPerCycle":2,"perfectL3":true,"timeline":true,"workers":-3}`,
		`{"id":"all","quick":true,"workers":4096}`,
		`{"id":"fig10","workers":1}`,
		`{"workloads":["bsearch","kgen:mixed:1:0-3"],"policies":["scc","ivb"],"simdWidths":[8,16],"sizes":[0,300]}`,
		`{"workloads":["kgen:mixed:1:0-1000000000"],"policies":["scc"]}`,
		`{"workloads":["urng"],"dcLinesPerCycle":-1}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	const maxCells = 64
	// A body that fails to decode is logged; the fuzzer's are discarded.
	s := New(Config{MaxBodyBytes: 1 << 12, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	decode := func(body []byte, v any) bool {
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		return s.decode(httptest.NewRecorder(), r, startTrace(r), "run", v)
	}
	procs := runtime.GOMAXPROCS(0)
	f.Fuzz(func(t *testing.T, body []byte) {
		var run RunRequest
		if decode(body, &run) {
			if spec, err := run.normalize(); err == nil {
				checkRun(t, run, spec, procs)
			}
		}

		var exp ExperimentRequest
		if decode(body, &exp) && exp.normalize() == nil {
			if exp.Workers < 0 || exp.Workers > procs {
				t.Fatalf("experiment workers normalized to %d, outside [0, %d]", exp.Workers, procs)
			}
			again := exp
			if err := again.normalize(); err != nil || again != exp {
				t.Fatalf("normalizing %+v again gave %+v, %v", exp, again, err)
			}
			if e := exp.echo(); e.Workers != 0 || e.key() != exp.key() {
				t.Fatalf("%+v echoed as %+v, want no workers under the same key", exp, e)
			}
		}

		var sw SweepRequest
		if decode(body, &sw) && sw.size() <= maxCells {
			cells, err := sw.cells()
			if err != nil {
				return
			}
			if len(cells) > sw.size() {
				t.Fatalf("%+v sized %d cells but expanded to %d", sw, sw.size(), len(cells))
			}
			for _, cell := range cells {
				checkRun(t, cell.req, cell.spec, procs)
			}
		}
	})
}

// checkRun checks one normalized run request's clamp, fixed point,
// resolved workload, echo and group key.
func checkRun(t *testing.T, run RunRequest, spec *workloads.Spec, procs int) {
	t.Helper()
	if run.Workers < 0 || run.Workers > procs {
		t.Fatalf("run workers normalized to %d, outside [0, %d]", run.Workers, procs)
	}
	again := run
	if againSpec, err := again.normalize(); err != nil || again != run || againSpec.Name != spec.Name {
		t.Fatalf("normalizing %+v again gave %+v, %v", run, again, err)
	}
	payload, err := encodeRunPayload(run, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var echoed struct {
		Request RunRequest `json:"request"`
	}
	if err := json.Unmarshal(payload, &echoed); err != nil {
		t.Fatalf("decoding %s: %v", payload, err)
	}
	if want := run.echo(); echoed.Request != want || echoed.Request.Workers != 0 || echoed.Request.key() != run.key() {
		t.Fatalf("%+v echoed as %+v, want %+v under the same key", run, echoed.Request, want)
	}
	other := run
	other.Policy = compaction.SCC.String()
	if run.groupKey() != other.groupKey() {
		t.Fatalf("group key of %+v depends on its policy", run)
	}
}

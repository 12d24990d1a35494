package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"intrawarp/internal/stats"
)

// decode parses a timeline's JSON into the envelope plus raw events.
func decode(t *testing.T, tl *Timeline) (map[string]any, []map[string]any) {
	t.Helper()
	body, err := tl.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	raw, ok := doc["traceEvents"].([]any)
	if !ok {
		t.Fatalf("traceEvents missing or not an array: %v", doc)
	}
	events := make([]map[string]any, len(raw))
	for i, e := range raw {
		events[i] = e.(map[string]any)
	}
	return doc, events
}

func TestEmptyTimelineIsValidDocument(t *testing.T) {
	doc, events := decode(t, NewTimeline())
	if doc["displayTimeUnit"] != "ms" {
		t.Errorf("displayTimeUnit = %v", doc["displayTimeUnit"])
	}
	if len(events) != 0 {
		t.Errorf("empty timeline has %d events", len(events))
	}
}

func TestTimelineRecordsLaunch(t *testing.T) {
	tl := NewTimeline()
	r := tl.Run("bfs/scc")
	r.LaunchBegin(LaunchEvent{Engine: "timed", Kernel: "bfs", Policy: "scc", Width: 16})
	r.WorkgroupDispatched(WGEvent{EU: 0, WG: 0, Cycle: 0, Threads: 4})
	r.InstrIssued(IssueEvent{EU: 0, Thread: 1, Cycle: 2, Start: 2, Cycles: 4, Op: "add", Pipe: 0, Active: 8, Width: 16})
	r.InstrIssued(IssueEvent{EU: 0, Thread: 1, Cycle: 4, Start: 6, Cycles: 2, Op: "mul", Pipe: 1, Active: 4, Width: 16})
	r.Window(0, 8, stats.WinMemory)
	r.Window(0, 10, stats.WinMemory) // merges with the previous window
	r.Window(0, 12, stats.WinIssued) // closes the stall
	r.SendCompleted(SendEvent{EU: 0, Thread: 2, Issued: 5, Completed: 40, Lines: 3})
	r.WorkgroupRetired(0, 50)
	r.LaunchEnd(64)

	_, events := decode(t, tl)

	// Required keys on every event.
	for _, e := range events {
		for _, k := range []string{"name", "ph", "pid", "tid", "ts"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event missing %q: %v", k, e)
			}
		}
	}

	count := func(ph, name string) int {
		n := 0
		for _, e := range events {
			if e["ph"] == ph && (name == "" || e["name"] == name) {
				n++
			}
		}
		return n
	}
	if got := count("M", "process_name"); got != 1 {
		t.Errorf("process_name metadata events = %d, want 1", got)
	}
	if got := count("X", "add") + count("X", "mul"); got != 2 {
		t.Errorf("issue slices = %d, want 2", got)
	}
	// Two merged memory windows become one stall slice spanning both.
	stall := 0
	for _, e := range events {
		if e["ph"] == "X" && e["cat"] == "stall" {
			stall++
			if e["name"] != "memory" {
				t.Errorf("stall kind = %v, want memory", e["name"])
			}
			if dur := e["dur"].(float64); dur != 3 { // cycles 8..10 inclusive
				t.Errorf("stall dur = %v, want 3", dur)
			}
		}
	}
	if stall != 1 {
		t.Errorf("stall slices = %d, want 1 (windows must merge)", stall)
	}
	if got := count("b", "send"); got != 1 {
		t.Errorf("send begin events = %d, want 1", got)
	}
	if got := count("e", "send"); got != 1 {
		t.Errorf("send end events = %d, want 1", got)
	}
	if got := count("C", "occupancy"); got != 2 {
		t.Errorf("occupancy samples = %d, want 2", got)
	}
	if got := count("C", "SIMD efficiency"); got == 0 {
		t.Error("no SIMD efficiency counter samples")
	}
}

// TestTimelineMonotonicPerTrack is the well-formedness contract the CI
// smoke validates: after export, each (pid, tid) track's timestamps are
// non-decreasing and metadata precedes data.
func TestTimelineMonotonicPerTrack(t *testing.T) {
	tl := NewTimeline()
	r := tl.Run("x")
	r.LaunchBegin(LaunchEvent{Engine: "timed", Kernel: "k", Policy: "scc", Width: 16})
	// Deliberately emit out of order across EUs and with pipe backpressure
	// (Start > Cycle) to force reordering work onto the exporter.
	r.InstrIssued(IssueEvent{EU: 1, Thread: 0, Cycle: 9, Start: 9, Cycles: 1, Op: "c", Pipe: 0, Active: 1, Width: 16})
	r.InstrIssued(IssueEvent{EU: 0, Thread: 0, Cycle: 5, Start: 7, Cycles: 2, Op: "b", Pipe: 0, Active: 1, Width: 16})
	r.InstrIssued(IssueEvent{EU: 0, Thread: 1, Cycle: 6, Start: 6, Cycles: 1, Op: "a", Pipe: 0, Active: 1, Width: 16})
	r.LaunchEnd(16)
	// Second launch continues on the same time axis.
	r.LaunchBegin(LaunchEvent{Engine: "timed", Kernel: "k", Policy: "scc", Width: 16})
	r.InstrIssued(IssueEvent{EU: 0, Thread: 0, Cycle: 1, Start: 1, Cycles: 1, Op: "d", Pipe: 0, Active: 1, Width: 16})
	r.LaunchEnd(4)

	_, events := decode(t, tl)
	type track struct{ pid, tid int }
	last := map[track]float64{}
	sawData := false
	for _, e := range events {
		if e["ph"] == "M" {
			if sawData {
				t.Fatal("metadata event after data events")
			}
			continue
		}
		sawData = true
		k := track{int(e["pid"].(float64)), int(e["tid"].(float64))}
		ts := e["ts"].(float64)
		if ts < last[k] {
			t.Fatalf("track %v: ts %v after %v", k, ts, last[k])
		}
		last[k] = ts
	}
	// The second launch's event lands at cycleBase 16 + 1 = 17.
	found := false
	for _, e := range events {
		if e["name"] == "d" && e["ts"].(float64) == 17 {
			found = true
		}
	}
	if !found {
		t.Error("second-launch event not offset by the first launch's cycles")
	}
}

// TestTimelineConcurrentUse drives one run from many goroutines (the
// shape of the functional engine above one worker) under the race
// detector.
func TestTimelineConcurrentUse(t *testing.T) {
	tl := NewTimeline()
	r := tl.Run("par")
	r.LaunchBegin(LaunchEvent{Engine: "functional", Kernel: "k", Width: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.InstrIssued(IssueEvent{EU: g % 4, Thread: g, Cycle: int64(i), Start: int64(i),
					Cycles: 1, Op: "op", Pipe: 0, Active: 8, Width: 16})
			}
		}(g)
	}
	wg.Wait()
	r.LaunchEnd(100)
	_, events := decode(t, tl)
	issues := 0
	for _, e := range events {
		if e["ph"] == "X" {
			issues++
		}
	}
	if issues != 800 {
		t.Fatalf("recorded %d issue slices, want 800", issues)
	}
}

// TestTimelineMultiRun checks that each Run gets its own pid and
// process_name, the layout the simd-sim -compare timeline relies on to
// show baseline and SCC stall structure side by side.
func TestTimelineMultiRun(t *testing.T) {
	tl := NewTimeline()
	for _, label := range []string{"bfs/baseline", "bfs/scc"} {
		r := tl.Run(label)
		r.LaunchBegin(LaunchEvent{Engine: "timed", Kernel: "bfs", Policy: strings.TrimPrefix(label, "bfs/"), Width: 16})
		r.Window(0, 0, stats.WinMemory)
		r.LaunchEnd(8)
	}
	_, events := decode(t, tl)
	pids := map[float64]string{}
	for _, e := range events {
		if e["ph"] == "M" && e["name"] == "process_name" {
			args := e["args"].(map[string]any)
			pids[e["pid"].(float64)] = args["name"].(string)
		}
	}
	if len(pids) != 2 {
		t.Fatalf("process pids = %v, want 2 distinct", pids)
	}
}

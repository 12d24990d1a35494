package stats

import (
	"encoding/json"

	"intrawarp/internal/compaction"
)

// Report is a JSON-serializable snapshot of a Run, for scripting around
// the CLI tools.
type Report struct {
	Kernel       string  `json:"kernel"`
	SIMDWidth    int     `json:"simdWidth"`
	Instructions int64   `json:"instructions"`
	Efficiency   float64 `json:"simdEfficiency"`
	Divergent    bool    `json:"divergent"`

	EUCycles struct {
		Baseline  int64 `json:"baseline"`
		IvyBridge int64 `json:"ivb"`
		BCC       int64 `json:"bcc"`
		SCC       int64 `json:"scc"`
		Melding   int64 `json:"meld"`
		Resize    int64 `json:"resize"`
		ITS       int64 `json:"its"`
	} `json:"euCycles"`
	BCCReduction  float64 `json:"bccReductionVsIVB"`
	SCCReduction  float64 `json:"sccReductionVsIVB"`
	MeldReduction float64 `json:"meldReductionVsIVB"`
	RszReduction  float64 `json:"resizeReductionVsIVB"`

	Timed *TimedReport `json:"timed,omitempty"`

	Memory struct {
		Sends        int64   `json:"sends"`
		LinesPerSend float64 `json:"linesPerSend"`
		SLMAccesses  int64   `json:"slmAccesses"`
		DRAMLines    int64   `json:"dramLines"`
	} `json:"memory"`

	Histogram map[int]HistEntry `json:"activeLaneHistogram"` // width → lane-utilization breakdown
}

// HistEntry is the serialized active-lane histogram of one SIMD width
// (the paper's Fig. 9 quartile breakdown plus empty-mask issues).
type HistEntry struct {
	Buckets []int64 `json:"buckets"` // quartile counts, lowest utilization first
	Empty   int64   `json:"empty"`   // instructions issued with an all-zero mask
	Total   int64   `json:"total"`
}

// TimedReport carries the quantities only a timed run produces.
type TimedReport struct {
	Policy      string  `json:"policy"`
	TotalCycles int64   `json:"totalCycles"`
	EUBusy      int64   `json:"euBusyCycles"`
	DCDemand    float64 `json:"dcLinesPerCycle"`
	L3HitRate   float64 `json:"l3HitRate"`
	EnergyProxy float64 `json:"energyProxy"`

	// StallWindows attributes every EU arbitration window of the run to
	// its outcome (the paper's Fig. 8-style breakdown); StallShares are
	// the same as fractions of all windows.
	StallWindows map[string]int64   `json:"stallWindows"`
	StallShares  map[string]float64 `json:"stallShares"`
}

// Report builds the serializable snapshot.
func (r *Run) Report() *Report {
	rep := &Report{
		Kernel:        r.Name,
		SIMDWidth:     r.Width,
		Instructions:  r.Instructions,
		Efficiency:    r.SIMDEfficiency(),
		Divergent:     r.Divergent(),
		BCCReduction:  r.EUCycleReduction(compaction.BCC),
		SCCReduction:  r.EUCycleReduction(compaction.SCC),
		MeldReduction: r.EUCycleReduction(compaction.Melding),
		RszReduction:  r.EUCycleReduction(compaction.Resize),
		Histogram:     map[int]HistEntry{},
	}
	rep.EUCycles.Baseline = r.PolicyCycles[compaction.Baseline]
	rep.EUCycles.IvyBridge = r.PolicyCycles[compaction.IvyBridge]
	rep.EUCycles.BCC = r.PolicyCycles[compaction.BCC]
	rep.EUCycles.SCC = r.PolicyCycles[compaction.SCC]
	rep.EUCycles.Melding = r.PolicyCycles[compaction.Melding]
	rep.EUCycles.Resize = r.PolicyCycles[compaction.Resize]
	rep.EUCycles.ITS = r.PolicyCycles[compaction.ITS]
	rep.Memory.Sends = r.Sends
	rep.Memory.LinesPerSend = r.LinesPerSend()
	rep.Memory.SLMAccesses = r.Mem.SLMAccesses
	rep.Memory.DRAMLines = r.Mem.DRAMLines
	for w, h := range r.Hist {
		rep.Histogram[w] = HistEntry{
			Buckets: append([]int64(nil), h.Buckets[:]...),
			Empty:   h.Empty,
			Total:   h.Total(),
		}
	}
	if r.TotalCycles > 0 {
		rep.Timed = &TimedReport{
			Policy:       r.TimedPolicy.String(),
			TotalCycles:  r.TotalCycles,
			EUBusy:       r.EUBusy,
			DCDemand:     r.DCDemand(),
			L3HitRate:    r.L3HitRate,
			EnergyProxy:  r.EnergyProxy(),
			StallWindows: map[string]int64{},
			StallShares:  map[string]float64{},
		}
		for k := StallKind(0); k < NumStallKinds; k++ {
			rep.Timed.StallWindows[k.String()] = r.Windows[k]
			rep.Timed.StallShares[k.String()] = r.WindowShare(k)
		}
	}
	return rep
}

// JSON renders the report with indentation.
func (r *Run) JSON() ([]byte, error) {
	return json.MarshalIndent(r.Report(), "", "  ")
}

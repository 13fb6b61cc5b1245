package obs

import "encoding/json"

// Phase names one slice of a request's wall time.
type Phase uint8

const (
	// PhaseAdmission is the wait at the admission gate.
	PhaseAdmission Phase = iota
	// PhaseDecode is reading the body off the connection, JSON decode and
	// validation.
	PhaseDecode
	// PhaseFanout is the time inside the read call that is not a shard
	// scan: pinning the view, pruning, advisors, the kNN sort.
	PhaseFanout
	// PhaseScan is the shard scans, page-file reads excluded.
	PhaseScan
	// PhasePagestore is page-file read time on block-cache misses.
	PhasePagestore
	// PhaseWrite is Backend.Insert/Delete as one phase: writer-lock wait,
	// apply, WAL append, fsync wait.
	PhaseWrite
	// PhaseEncode is JSON encode plus ResponseWriter.Write.
	PhaseEncode
	// PhaseUnattributed is wall time minus the phases above.
	PhaseUnattributed
	NPhases
)

var phaseNames = [NPhases]string{"admission", "decode", "fanout", "scan", "pagestore", "write", "encode", "unattributed"}

func (p Phase) String() string { return phaseNames[p] }

// Phases is the clock of one request: nanoseconds per phase, plus the work
// counts of its reads. One request runs on one goroutine from admission to
// the last response byte, so a Phases has no lock and no atomics; whoever
// owns the request owns it. The index layers take a *Phases and treat nil as
// "untimed".
type Phases struct {
	NS [NPhases]int64
	// Scans is the number of shard scans the request ran, Results the points
	// (or count) they produced, PageReads the page-file reads they caused.
	Scans, Results, PageReads int64
}

// MarshalJSON writes the phases as one flat object, {"admission_ns":…, …,
// "scans":…, "results":…, "page_reads":…}: names, not array positions, are
// what a reader of /debug/slowlog needs.
func (p Phases) MarshalJSON() ([]byte, error) {
	m := map[string]int64{"scans": p.Scans, "results": p.Results, "page_reads": p.PageReads}
	for i, ns := range p.NS {
		m[phaseNames[i]+"_ns"] = ns
	}
	return json.Marshal(m)
}

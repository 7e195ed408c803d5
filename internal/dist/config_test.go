package dist_test

import (
	"strings"
	"testing"

	"matopt/internal/costmodel"
	"matopt/internal/dist"
)

// TestConfigValidate is the one table of range checks and
// engine-applicability rules for the execution knobs; the CLI, the
// /execute endpoint and matopt.Executor all reach these rows through
// Config.Validate (TestOneValidatorOnEverySurface in cmd/matopt).
func TestConfigValidate(t *testing.T) {
	many := func(n int) []string {
		peers := make([]string, n)
		for i := range peers {
			peers[i] = "local"
		}
		return peers
	}
	cases := []struct {
		name    string
		cfg     dist.Config
		dist    bool
		wantErr string // "" means the config must validate
	}{
		{"zero value on dist", dist.Config{}, true, ""},
		{"zero value on seq", dist.Config{}, false, ""},
		{"every knob on dist", dist.Config{
			Shards: 4, KernelThreads: 2, MaxRetries: intp(3), Fallback: true,
			Faults: 5, FaultSeed: 7, Peers: []string{"local", "127.0.0.1:9431"},
		}, true, ""},
		{"engine-neutral knobs on seq", dist.Config{
			Shards: 4, KernelThreads: 64, MaxRetries: intp(0), Fallback: true, FaultSeed: 3,
		}, false, ""},
		{"limits are inclusive", dist.Config{
			Shards: dist.ShardLimit, Faults: dist.FaultLimit,
			MaxRetries: intp(dist.RetryLimit), Peers: many(dist.PeerLimit),
		}, true, ""},

		{"negative shards", dist.Config{Shards: -1}, true, "shards must be non-negative"},
		{"shards over the limit", dist.Config{Shards: dist.ShardLimit + 1}, true, "shards must be at most"},
		{"shards over the limit on seq", dist.Config{Shards: 50_000_000}, false, "shards must be at most"},
		{"negative kernel threads", dist.Config{KernelThreads: -1}, false, "kernel_threads must be non-negative"},
		{"negative max retries", dist.Config{MaxRetries: intp(-2)}, true, "max_retries must be non-negative"},
		{"max retries over the limit", dist.Config{MaxRetries: intp(dist.RetryLimit + 1)}, true, "max_retries must be at most"},
		{"negative faults", dist.Config{Faults: -1}, true, "faults must be non-negative"},
		{"faults over the limit", dist.Config{Faults: 2_000_000_000}, true, "faults must be at most"},
		{"negative fault seed", dist.Config{FaultSeed: -7}, true, "fault_seed must be non-negative"},
		{"too many peers", dist.Config{Peers: many(dist.PeerLimit + 1)}, true, "len(peers) must be at most"},
		{"empty peer entry", dist.Config{Peers: []string{"127.0.0.1:9431", " "}}, true, "peers[1] is empty"},

		{"faults on seq", dist.Config{Faults: 2}, false, "faults requires engine dist"},
		{"peers on seq", dist.Config{Peers: []string{"127.0.0.1:9431"}}, false, "peers requires engine dist"},

		{"first problem wins", dist.Config{Shards: -1, Faults: -1}, true, "shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate(tc.dist)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want valid, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
			// New runs the same validator: nothing reaches the runtime
			// around it.
			if tc.dist {
				if _, nerr := dist.New(costmodel.LocalTest(2), tc.cfg); nerr == nil || !strings.Contains(nerr.Error(), tc.wantErr) {
					t.Fatalf("dist.New: want error containing %q, got %v", tc.wantErr, nerr)
				}
			}
		})
	}
}

// TestConfigDefaults: each documented zero value resolves to its
// default, and an explicit zero retry budget survives as zero.
func TestConfigDefaults(t *testing.T) {
	rt, err := dist.New(costmodel.LocalTest(2), dist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := rt.Config()
	if c.Shards != dist.DefaultShards() || c.KernelThreads < 1 {
		t.Errorf("shards=%d kernel_threads=%d, want %d and a positive budget", c.Shards, c.KernelThreads, dist.DefaultShards())
	}
	if c.MaxRetries == nil || *c.MaxRetries != dist.DefaultMaxRetries {
		t.Errorf("max_retries default = %v, want %d", c.MaxRetries, dist.DefaultMaxRetries)
	}
	if c.FaultSeed != 1 {
		t.Errorf("fault_seed default = %d, want 1", c.FaultSeed)
	}
	rt, err = dist.New(costmodel.LocalTest(2), dist.Config{MaxRetries: intp(0)})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Config().MaxRetries; got == nil || *got != 0 {
		t.Errorf("explicit max_retries 0 became %v", got)
	}
}

// Command serveclient demonstrates the serving layer end to end in one
// process: it starts a serve.Server on a loopback listener, plays the
// part of several HTTP clients against it — optimize, coalesced
// concurrent optimizes, execute on two engines, a plan round-trip —
// prints a transcript, and drains the server gracefully. It is the
// programmatic twin of running `matoptd` and poking it with curl.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"sync"

	"matopt"
	"matopt/internal/serve"
)

func main() {
	srv := serve.New(serve.Config{
		Cluster: matopt.ClusterR5D(5),
		Workers: 4,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("serving on %s\n\n", ts.URL)

	post := func(path, body string) map[string]any {
		res, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			log.Fatalf("POST %s: %v", path, err)
		}
		raw, _ := io.ReadAll(res.Body)
		res.Body.Close()
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			log.Fatalf("POST %s: %s", path, raw)
		}
		if res.StatusCode != http.StatusOK {
			log.Fatalf("POST %s: %d: %s", path, res.StatusCode, raw)
		}
		return m
	}

	// One optimization: the paper's FFNN update at in-process scale.
	fmt.Println("== POST /optimize {\"workload\":\"ffnn\"}")
	opt := post("/optimize", `{"workload":"ffnn"}`)
	fmt.Printf("fingerprint %.16s…  predicted %.3gs  cached=%v\n\n",
		opt["fingerprint"], opt["predicted_seconds"], opt["cached"])

	// Eight clients ask for the same (new) computation at once; the
	// coalescing layer runs one search and fans the plan out.
	fmt.Println("== 8 concurrent POST /optimize {\"workload\":\"ffnn3\"}")
	var wg sync.WaitGroup
	var mu sync.Mutex
	tally := map[string]int{}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := post("/optimize", `{"workload":"ffnn3"}`)
			key := "leader"
			if m["cached"] == true {
				key = "cache hit"
			} else if m["coalesced"] == true {
				key = "coalesced"
			}
			mu.Lock()
			tally[key]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	fmt.Printf("outcome: %v — one search served all eight\n\n", tally)

	// Execute on the sequential engine and on the fault-injected dist
	// engine; the SHA-256 digests prove the outputs are bit-identical.
	// The run-time keys are matopt.ExecConfig's JSON names (DESIGN.md §17).
	fmt.Println("== POST /execute  seq vs dist+faults")
	seq := post("/execute", `{"workload":"chain","scale":400}`)
	dist := post("/execute", `{"workload":"chain","scale":400,"engine":"dist","shards":3,"faults":2,"fallback":true}`)
	sha := func(m map[string]any) string {
		return m["outputs"].([]any)[0].(map[string]any)["sha256"].(string)
	}
	seqSHA, distSHA := sha(seq), sha(dist)
	fmt.Printf("seq  sha256 %.16s…\ndist sha256 %.16s…  (match=%v)\n\n", seqSHA, distSHA, seqSHA == distSHA)

	// Round-trip a serialized physical plan.
	fmt.Println("== POST /plan  encode, then validate the payload")
	enc := post("/plan", `{"workload":"inverse"}`)
	payload, _ := json.Marshal(map[string]any{"workload": "inverse", "plan": enc["plan"]})
	dec := post("/plan", string(payload))
	fmt.Printf("%v physical operators; round-trip valid=%v\n\n", enc["nodes"], dec["valid"])

	if err := srv.Drain(context.Background()); err != nil {
		log.Fatalf("drain: %v", err)
	}
	fmt.Println("drained cleanly")
}

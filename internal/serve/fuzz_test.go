package serve

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"testing"
)

// FuzzRequestBody feeds arbitrary bytes to the decode step of the three
// POST endpoints — everything a request goes through before it is
// admitted: the body read, the one JSON decode into the endpoint's
// request type, its options, and /execute's knob validation. Nothing
// may panic, and every refusal must be typed as the client's (a 400).
// The handlers themselves are not run — a well-formed spec may
// legitimately ask for gigabytes; workload.FuzzSpec covers what they do
// with the spec before any matrix exists.
func FuzzRequestBody(f *testing.F) {
	f.Add([]byte(`{"workload":"chain"}`))
	f.Add([]byte(executeDistBody))
	f.Add([]byte(`{"workload":"ffnn3","scale":200,"explain":true,"deadline_ms":5,"trace":true}`))
	f.Add([]byte(`{"workload":"inverse","plan":{"version":3,"fingerprint":"00","nodes":[]}}`))
	f.Add([]byte(`{"workload":"chain","engine":"dist","peers":["local","127.0.0.1:9431"],"max_retries":0}`))
	f.Add([]byte(`{"workload":"chain","shards":50000000,"faults":2000000000}`))
	f.Add([]byte(`{nope`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, req := range []request{&OptimizeRequest{}, &ExecuteRequest{}, &PlanRequest{}} {
			r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
			if err := readRequest(httptest.NewRecorder(), r, req); err != nil {
				var bad badRequestError
				if !errors.As(err, &bad) || statusOf(err) != 400 {
					t.Fatalf("%T: %q refused with an error that is not a 400: %v", req, body, err)
				}
				continue
			}
			req.options()
			if exe, ok := req.(*ExecuteRequest); ok {
				_ = exe.validate() // an error is a 400; it must not panic
			}
		}
	})
}

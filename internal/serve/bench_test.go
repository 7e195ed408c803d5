package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"matopt/internal/costmodel"
	"matopt/internal/obs"
)

// BenchmarkServeExecute is one warm /execute — plan cached, nothing
// queued — through Server.Handler(): the two request classes of the
// benchmark's served_mix in which the serving layer, not the engine, is
// most of the time. exec_small is the class that holds the mix's median;
// exec_bigreply returns the largest body (reply-B). Every request is the
// same one, posted again, and its reply is counted and dropped, so B/op
// is what the server allocates. `make profile-serve` profiles it.
func BenchmarkServeExecute(b *testing.B) {
	for _, c := range []struct{ name, body string }{
		{"exec_small", `{"workload":"chain","sizeset":1,"scale":400}`},
		{"exec_bigreply", `{"workload":"ffnn","scale":400}`},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := New(Config{Cluster: costmodel.LocalTest(2), Registry: obs.NewRegistry()})
			defer s.Drain(context.Background())
			h := s.Handler()
			body := strings.NewReader(c.body)
			req := httptest.NewRequest("POST", "/execute", body)
			w := &discardWriter{header: http.Header{}}
			post := func() int {
				body.Reset(c.body)
				clear(w.header)
				w.code, w.n = 0, 0
				h.ServeHTTP(w, req)
				if w.code != http.StatusOK {
					b.Fatalf("status %d", w.code)
				}
				return w.n
			}
			replyBytes := post()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
			b.ReportMetric(float64(replyBytes), "reply-B")
		})
	}
}

// discardWriter is an http.ResponseWriter that keeps the status and
// counts the body's bytes but stores none of them.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	return len(p), nil
}

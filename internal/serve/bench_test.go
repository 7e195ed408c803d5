package serve

import (
	"context"
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
// exec_bigreply returns the largest body (reply-B). `make profile-serve`
// profiles it.
func BenchmarkServeExecute(b *testing.B) {
	for _, c := range []struct{ name, body string }{
		{"exec_small", `{"workload":"chain","sizeset":1,"scale":400}`},
		{"exec_bigreply", `{"workload":"ffnn","scale":400}`},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := New(Config{Cluster: costmodel.LocalTest(2), Registry: obs.NewRegistry()})
			defer s.Drain(context.Background())
			h := s.Handler()
			post := func() int {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("POST", "/execute", strings.NewReader(c.body)))
				if rec.Code != 200 {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				return rec.Body.Len()
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

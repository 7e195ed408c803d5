package netfabric

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"matopt/internal/engine"
)

// TestChanSession: a Chan session is the inbox alone. Open starts no
// goroutine, every message of concurrent senders comes back from
// Collect in its destination's inbox, and Abandon after sending leaves
// nothing behind.
func TestChanSession(t *testing.T) {
	const shards, senders, each = 8, 8, 200
	id := ExchangeID{Vertex: 1, Kind: "shuffle", Label: "chan"}
	before := runtime.NumGoroutine()
	sess, err := Chan().Open(context.Background(), nil, id, shards)
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine() - before; n > 0 {
		t.Fatalf("Open started %d goroutines", n)
	}

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				k := engine.Key{I: int64(s), J: int64(i)}
				if err := sess.Send((s+i)%shards, Message{Key: k, Seq: int64(i), Tuple: engine.Tuple{Key: k}}); err != nil {
					t.Error(err)
				}
			}
		}(s)
	}
	wg.Wait()
	recv, err := sess.Collect()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[engine.Key]bool)
	for dst, inbox := range recv {
		for _, m := range inbox {
			if int(m.Key.I+m.Key.J)%shards != dst || seen[m.Key] {
				t.Fatalf("message %v in shard %d's inbox (seen before: %v)", m.Key, dst, seen[m.Key])
			}
			seen[m.Key] = true
		}
	}
	if len(seen) != senders*each {
		t.Fatalf("Collect returned %d of %d messages", len(seen), senders*each)
	}

	sess, err = Chan().Open(context.Background(), nil, id, shards)
	if err != nil {
		t.Fatal(err)
	}
	for dst := 0; dst < shards; dst++ {
		sess.Send(dst, Message{Seq: int64(dst)})
	}
	sess.Abandon()
	if left := sess.(*session).inbox; left != nil {
		t.Fatalf("Abandon left %d inboxes behind", len(left))
	}
}

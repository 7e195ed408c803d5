package lru

import (
	"slices"
	"testing"
)

// TestCache drives one cache per row through puts and gets and checks
// what it holds, most recently used first, and the cost it reports.
func TestCache(t *testing.T) {
	type op struct {
		get  bool
		key  string
		cost int64
	}
	put := func(k string, c int64) op { return op{key: k, cost: c} }
	get := func(k string) op { return op{get: true, key: k} }
	for _, tc := range []struct {
		name   string
		budget int64
		ops    []op
		want   []string // keys held, most recently used first
		total  int64
	}{
		{"puts order by recency", 10, []op{put("a", 1), put("b", 1), put("c", 1)}, []string{"c", "b", "a"}, 3},
		{"a hit moves to the front", 10, []op{put("a", 1), put("b", 1), get("a")}, []string{"a", "b"}, 2},
		{"a miss changes nothing", 10, []op{put("a", 1), put("b", 1), get("z")}, []string{"b", "a"}, 2},
		{"eviction at the budget takes the least recent", 3, []op{put("a", 1), put("b", 1), put("c", 1), put("d", 1)}, []string{"d", "c", "b"}, 3},
		{"eviction by cost takes as many as it must", 10, []op{put("a", 4), put("b", 4), put("c", 1), put("d", 8)}, []string{"d", "c"}, 9},
		{"a touched entry survives eviction", 3, []op{put("a", 1), put("b", 1), put("c", 1), get("a"), put("d", 1)}, []string{"d", "a", "c"}, 3},
		{"replacing adjusts the total", 10, []op{put("a", 4), put("b", 2), put("a", 1)}, []string{"a", "b"}, 3},
		{"replacing upward can evict", 10, []op{put("a", 4), put("b", 2), put("b", 8)}, []string{"b"}, 8},
		{"an entry over the whole budget is not kept", 5, []op{put("a", 2), put("b", 6)}, nil, 0},
	} {
		c := New[string](tc.budget, func(v int64) int64 { return v })
		var total int64
		for _, o := range tc.ops {
			if o.get {
				c.Get(o.key)
			} else {
				total = c.Put(o.key, o.cost)
			}
		}
		var held []string
		for el := c.order.Front(); el != nil; el = el.Next() {
			held = append(held, el.Value.(*entry[string, int64]).key)
		}
		if !slices.Equal(held, tc.want) || total != tc.total || c.Len() != len(tc.want) {
			t.Errorf("%s: holds %v at cost %d (Len %d), want %v at %d", tc.name, held, total, c.Len(), tc.want, tc.total)
		}
		for _, k := range tc.want {
			if v, ok := c.Get(k); !ok || v <= 0 {
				t.Errorf("%s: Get(%q) = %d, %v", tc.name, k, v, ok)
			}
		}
	}
}

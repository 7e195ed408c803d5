// Package lru is the one least-recently-used cache the module keeps: a
// mutex-guarded list and map bounded by a budget of per-entry costs —
// the plan cache counts entries, the serving layer's input cache bytes.
package lru

import (
	"container/list"
	"sync"
)

// Cache maps keys to values, evicting least-recently-used entries while
// the summed cost of what it holds exceeds its budget. It is safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	budget int64
	cost   func(V) int64
	total  int64
	order  *list.List // front = most recently used
	items  map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New returns an empty cache holding at most budget in summed cost(v).
func New[K comparable, V any](budget int64, cost func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{budget: budget, cost: cost, order: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the value under key and makes it the most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores v under key as the most recently used entry, replacing any
// value there, then evicts from the least recently used end down to the
// budget — v itself when it alone is over. It returns the cost held
// after eviction.
func (c *Cache[K, V]) Put(key K, v V) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	cost := c.cost(v)
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[K, V])
		c.total += cost - e.cost
		e.val, e.cost = v, cost
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: v, cost: cost})
		c.total += cost
	}
	for c.total > c.budget && c.order.Len() > 0 {
		e := c.order.Remove(c.order.Back()).(*entry[K, V])
		delete(c.items, e.key)
		c.total -= e.cost
	}
	return c.total
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

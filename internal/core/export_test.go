package core

// RandomTree lets the external test package draw the property tests'
// random trees.
var RandomTree = randomTree

// The free list's bounds, for the retention test.
const (
	MaxIdleScratches = maxIdleScratches
	MaxScratchBytes  = maxScratchBytes
)

// DropIdleScratches empties the Frontier scratch free list, so the next
// search starts from a new scratch as a process's first search does.
func DropIdleScratches() {
	idleScratches.Lock()
	defer idleScratches.Unlock()
	clear(idleScratches.list)
	idleScratches.list = idleScratches.list[:0]
}

// IdleScratchBytes reports what each scratch on the free list holds.
func IdleScratchBytes() []int {
	idleScratches.Lock()
	defer idleScratches.Unlock()
	var n []int
	for _, s := range idleScratches.list {
		n = append(n, s.bytes())
	}
	return n
}

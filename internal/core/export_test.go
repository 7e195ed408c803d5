package core

// RandomTree lets the external test package draw the property tests'
// random trees.
var RandomTree = randomTree

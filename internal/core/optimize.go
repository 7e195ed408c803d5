package core

// Optimize computes the optimal annotation of g with a fresh
// uncancellable session; see Session.Optimize.
func Optimize(g *Graph, env *Env) (*Annotation, error) {
	return NewSession(nil, env).Optimize(g)
}

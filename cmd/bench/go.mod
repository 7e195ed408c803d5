// The benchmark is a module of its own so that it builds from its own
// file and the root module's `go build ./...` and `go test ./...` never
// run it; the replace directive points it at the checkout it measures.
module matopt/cmd/bench

go 1.22

require matopt v0.0.0

replace matopt => ../..

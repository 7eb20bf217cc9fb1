// The benchmark is its own module so that it builds from its own
// directory (`go run -C benchmarks .`) and stays out of the root module's
// `go build ./... && go test ./...`. Its import path sits under the root
// module's, which is what lets it import the simulator's internal/ packages.
module github.com/caps-sim/shs-k8s/benchmarks

go 1.22

require github.com/caps-sim/shs-k8s v0.0.0

replace github.com/caps-sim/shs-k8s => ../

package fabric_test

// Thin wrappers so the canonical dragonfly forwarding benchmarks
// (internal/perfsuite) run under `go test -bench` here; Groups4 is also the
// repository benchmark's fabric.packet_ns isolate. Groups1 is the
// intra-group baseline; larger fabrics add gateway hops, the epoch-
// validated route cache, and global-link contention.

import (
	"testing"

	"github.com/caps-sim/shs-k8s/internal/perfsuite"
)

func BenchmarkFabric_Groups1(b *testing.B)  { perfsuite.FabricGroups(1)(b) }
func BenchmarkFabric_Groups4(b *testing.B)  { perfsuite.FabricGroups(4)(b) }
func BenchmarkFabric_Groups16(b *testing.B) { perfsuite.FabricGroups(16)(b) }

package gpusim

import "testing"

// benchKernels and benchGPUs describe the shape of the canonical
// engine benchmark DAG.
const (
	benchKernels = 1000
	benchGPUs    = 8
)

// newBenchmarkSim constructs the dense co-run DAG BenchmarkEngine runs:
// benchKernels kernels across benchGPUs GPUs with stream chaining, so
// most events see many concurrent resource users.
func newBenchmarkSim() *Sim {
	s := NewSim(ClusterConfig{NumGPUs: benchGPUs})
	for k := 0; k < benchKernels; k++ {
		g := k % benchGPUs
		s.AddKernel(g, Kernel{
			Name: "k", Work: float64(1 + k%50),
			Demand: Demand{SM: 0.1 + float64(k%7)*0.1, MemBW: 0.2},
		}, WithStream("s"+string(rune('a'+k%4))))
	}
	return s
}

// BenchmarkEngine measures the discrete-event engine on the canonical
// dense co-run DAG (see newBenchmarkSim). The tracked end-to-end
// simulator numbers come from the pipeline-sim workload in perfbench.
func BenchmarkEngine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := newBenchmarkSim()
		b.StartTimer()
		if _, err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

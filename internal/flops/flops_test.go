package flops

import (
	"testing"
	"time"

	"gobeagle/internal/kernels"
)

func TestPerPartialsEntry(t *testing.T) {
	if got := PerPartialsEntry(4); got != 17 {
		t.Fatalf("PerPartialsEntry(4) = %v, want 17", got)
	}
	if got := PerPartialsEntry(61); got != 245 {
		t.Fatalf("PerPartialsEntry(61) = %v, want 245", got)
	}
}

func TestPartialsOpAndTotal(t *testing.T) {
	d := kernels.Dims{StateCount: 4, PatternCount: 100, CategoryCount: 2}
	want := 2.0 * 100 * 4 * 17
	if got := PartialsOp(d); got != want {
		t.Fatalf("PartialsOp = %v, want %v", got, want)
	}
	if got := Total(d, 5); got != 5*want {
		t.Fatalf("Total = %v, want %v", got, 5*want)
	}
}

func TestGFLOPS(t *testing.T) {
	if got := GFLOPS(2e9, time.Second); got != 2 {
		t.Fatalf("GFLOPS = %v, want 2", got)
	}
	if got := GFLOPS(1e9, 500*time.Millisecond); got != 2 {
		t.Fatalf("GFLOPS = %v, want 2", got)
	}
	for _, d := range []time.Duration{0, -time.Second} {
		if got := GFLOPS(1e9, d); got != 0 {
			t.Fatalf("GFLOPS with %v elapsed = %v, want 0", d, got)
		}
	}
}

package stats_test

import (
	"fmt"

	"causalfl/internal/stats"
)

// Example demonstrates the guarded KS decision the pipeline uses: a
// microscopic displacement of a near-deterministic series is declared
// practically equal, while a collapse to zero is flagged.
func Example() {
	test := stats.GuardedTest{}

	base := []float64{0.300, 0.300, 0.301, 0.300, 0.301, 0.300}
	wobble := []float64{0.299, 0.300, 0.299, 0.300, 0.299, 0.300}
	collapsed := []float64{0, 0, 0, 0, 0, 0}

	pWobble, err := test.PValue(base, wobble)
	if err != nil {
		panic(err)
	}
	pCollapse, err := test.PValue(base, collapsed)
	if err != nil {
		panic(err)
	}
	fmt.Printf("micro-wobble anomalous:   %v\n", pWobble < 0.05)
	fmt.Printf("collapse-to-0 anomalous:  %v\n", pCollapse < 0.05)
	// Output:
	// micro-wobble anomalous:   false
	// collapse-to-0 anomalous:  true
}

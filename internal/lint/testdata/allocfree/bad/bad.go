// Allocation sites inside //lint:hotpath functions: direct sites, sites
// in an unmarked module callee (reported with the hot root), and calls
// that cannot be proven.
package hot

import "fmt"

// Score is the marked entry point of the hot path.
//
//lint:hotpath
func Score(dst []float64, q []string) []float64 {
	tmp := make([]float64, len(q)) // want `make allocates`
	for i := range q {
		tmp[i] = float64(len(q[i]))
	}
	label := "q:" + q[0] // want `string concatenation allocates`
	fmt.Println(label)   // want `fmt.Println allocates`
	extra := []float64{1} // want `slice literal allocates`
	dst = append(dst, extra...)
	return helper(dst, tmp)
}

// helper is unmarked but reachable from Score, so its sites count.
func helper(dst, tmp []float64) []float64 {
	more := []float64{2, 3} // want `slice literal allocates`
	dst = append(dst, more...)
	_ = tmp
	return dst
}

// Convert copies on the hot path.
//
//lint:hotpath
func Convert(b []byte) string {
	return string(b) // want `conversion copies its operand`
}

// Spawn launches work from the hot path.
//
//lint:hotpath
func Spawn() {
	go background() // want `go statement spawns a goroutine`
}

func background() {}

// Retain returns a capturing closure, which must live on the heap.
//
//lint:hotpath
func Retain(n int) func() int {
	return func() int { return n } // want `escaping closure captures variables`
}

// Scorer has no implementation in this package, so calls through it
// cannot be proven.
type Scorer interface{ ScoreOne(q string) float64 }

// Apply dispatches through an unprovable interface.
//
//lint:hotpath
func Apply(s Scorer, q string) float64 {
	return s.ScoreOne(q) // want `interface call Scorer.ScoreOne has no module implementers`
}

// box is a generic container; its hot method reaches an allocating
// method through the instantiated receiver.
type box[V any] struct{ vals []V }

// Peek is marked hot, but grow allocates.
//
//lint:hotpath
func (b *box[V]) Peek() int {
	b.grow()
	return len(b.vals)
}

func (b *box[V]) grow() {
	b.vals = make([]V, 0, 8) // want `make allocates \(in grow, reached from //lint:hotpath Peek\)`
}

// genHelper allocates; Probe reaches it through an explicit
// instantiation.
func genHelper[T any]() []T {
	return make([]T, 4) // want `make allocates \(in genHelper, reached from //lint:hotpath Probe\)`
}

// Probe calls generic module code with explicit type arguments.
//
//lint:hotpath
func Probe() int {
	return len(genHelper[int]())
}

// Package a exercises the noalloc analyzer: hotpath roots, transitive
// reachability across helpers and interface dispatch, the caller-budgeted
// append exemption, counted suppressions, and suppression pruning.
package a

// Root is the hot entry point; everything it reaches must be proven
// allocation-free or carry a counted suppression.
//
//lint:hotpath
func Root(dst []byte, n int, m map[int]int) []byte {
	dst = append(dst, byte(n)) // caller-budgeted: dst is a parameter
	dst = helper(dst)
	// The suppression below covers its own line and the next, and prunes
	// the traversal into cold's subtree.
	cold() //lint:allow noalloc (counted: cold branch, pruned subtree)

	leaky(n)
	dyn(noop)
	closures(n)
	maps(m)
	counted()
	box(n)
	dst = viaIface(encA{}, dst) // want `boxes a non-pointer value into an interface parameter`
	strs("x", "y")
	_ = ptrLit()
	methodValues(&point{}) // want `address of composite literal escapes`
	return dst
}

// helper extends its own parameter: exempt.
func helper(dst []byte) []byte {
	return append(dst, 1)
}

// cold allocates, but the call above is suppressed, which prunes the
// traversal: nothing in here is reported.
func cold() {
	buf := make([]byte, 64)
	_ = buf
}

func leaky(n int) {
	buf := make([]byte, n) // want `make allocates`
	_ = buf
	local := []int{}         // want `slice literal allocates`
	local = append(local, n) // want `append to a non-parameter slice`
	_ = local
	p := new(int) // want `new allocates`
	_ = p
}

func noop() {}

func dyn(f func()) {
	f() // want `dynamic call through a func value`
}

func closures(n int) {
	f := func() int { return n } // want `closure captures variables`
	_ = f
	g := func() int { return 7 } // static: captures nothing, no allocation
	_ = g
}

func maps(m map[int]int) {
	m[1] = 2 // want `map write may allocate`
	delete(m, 1)
}

// counted allocates, but the site carries a counted suppression: the
// budget mechanism that pins the allocs/op number.
func counted() {
	_ = make([]byte, 8) //lint:allow noalloc (counted: warm-up scratch buffer)
}

func box(n int) {
	sink(n) // want `boxes a non-pointer value into an interface parameter`
}

func sink(v any) { _ = v }

type enc interface {
	encode(dst []byte) []byte
}

type encA struct{}

func (encA) encode(dst []byte) []byte { return append(dst, 1) }

type encB struct{}

// encB.encode is reached through the interface dispatch in viaIface even
// though no encB value is constructed: class-hierarchy resolution keeps
// every implementation honest.
func (encB) encode(dst []byte) []byte {
	extra := make([]byte, 4) // want `make allocates`
	return append(dst, extra...)
}

func viaIface(e enc, dst []byte) []byte {
	return e.encode(dst)
}

func strs(a, b string) {
	s := a + b // want `string concatenation allocates`
	_ = s
	bs := []byte(a) // want `string-to-\[\]byte conversion allocates`
	_ = string(bs)  // want `\[\]byte-to-string conversion allocates`
}

type point struct{ x, y int }

func ptrLit() *point {
	return &point{x: 1} // want `address of composite literal escapes`
}

func (p *point) norm() int { return p.x*p.x + p.y*p.y }

func apply(f func() int) int { return f() } // want `dynamic call through a func value`

// methodValues binds a method value, which allocates its closure when it
// escapes; calling the method does not.
func methodValues(p *point) {
	_ = p.norm()
	_ = apply(p.norm) // want `method value binds its receiver`
	_ = (p.norm)()
	f := (*point).norm // a method expression is a static function value
	_ = f(p)           // want `dynamic call through a func value`
}

// coldIsolated is never reached from a hotpath root, so its allocation is
// not reported.
func coldIsolated() {
	_ = make([]byte, 1)
}

// A suppression without a parenthesized reason is itself a finding.
//
//lint:allow noalloc // want `needs a non-empty \(reason\)`
func badSuppress() {}

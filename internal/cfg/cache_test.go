package cfg

import (
	"testing"

	"flowdroid/internal/irtext"
)

const cacheSrc = `
class R {
  static method a(): void {
    R.b()
    return
  }
  static method b(): void {
    x = 1
    if * goto done
    goto done
  done:
    return
  }
}
`

// TestCFGOfIsMemoized: the cache builds each method's CFG once and hands
// every later caller that same canonical CFG.
func TestCFGOfIsMemoized(t *testing.T) {
	prog, err := irtext.ParseProgram(cacheSrc, "cache.ir")
	if err != nil {
		t.Fatal(err)
	}
	a, b := prog.Class("R").Method("a", 0), prog.Class("R").Method("b", 0)
	cache := NewCache()
	first := cache.CFGOf(a)
	if first == nil || first.Method != a {
		t.Fatalf("CFGOf(a) = %v, want a's CFG", first)
	}
	if again := cache.CFGOf(a); again != first {
		t.Error("second CFGOf(a) built a new CFG instead of returning the cached one")
	}
	if other := cache.CFGOf(b); other == first || other.Method != b {
		t.Error("CFGOf(b) returned a's CFG")
	}
}

package ir

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func methodNames(ms []*Method) string {
	var out []string
	for _, m := range ms {
		out = append(out, fmt.Sprintf("%s/%d", m.Name, len(m.Params)))
	}
	return fmt.Sprint(out)
}

func classNames(cs []*Class) string {
	var out []string
	for _, c := range cs {
		out = append(out, c.Name)
	}
	return fmt.Sprint(out)
}

func method(name string, nargs int) *Method {
	m := NewMethod(name, Void, true)
	for i := 0; i < nargs; i++ {
		m.Params = append(m.Params, &Local{Name: fmt.Sprintf("p%d", i)})
	}
	return m
}

// TestMethodsCacheSeesAddMethod: a method added after Methods() was
// cached shows in the next call, in sorted position, and the slice
// returned before is unchanged.
func TestMethodsCacheSeesAddMethod(t *testing.T) {
	c := NewClass("C", "")
	for _, m := range []*Method{method("b", 0), method("d", 0)} {
		if err := c.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Methods()
	if got := methodNames(before); got != "[b/0 d/0]" {
		t.Fatalf("Methods() = %s", got)
	}
	for _, m := range []*Method{method("c", 0), method("a", 1), method("b", 1)} {
		if err := c.AddMethod(m); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := methodNames(c.Methods()), "[a/1 b/0 b/1 c/0 d/0]"; got != want {
		t.Errorf("after AddMethod, Methods() = %s, want %s", got, want)
	}
	if got := methodNames(before); got != "[b/0 d/0]" {
		t.Errorf("the earlier Methods() slice changed to %s", got)
	}
}

// TestClassesMergeSeesAddClass interleaves AddClass and Classes() at
// random, on fresh programs and on clones of a sealed one, and checks
// every Classes() against a full sort: the merge of the classes added
// since the cached list puts each in sorted position, and no list
// returned earlier changes.
func TestClassesMergeSeesAddClass(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sealed := NewProgram()
	for i := 0; i < 20; i += 2 {
		if err := sealed.AddClass(NewClass(fmt.Sprintf("K%02d", i), "")); err != nil {
			t.Fatal(err)
		}
	}
	sealed.Seal()
	baseList := classNames(sealed.Classes())
	for trial := 0; trial < 40; trial++ {
		p := NewProgram()
		var names []string
		if trial%2 == 1 {
			p = sealed.Clone()
			for _, c := range sealed.Classes() {
				names = append(names, c.Name)
			}
		}
		type snapshot struct {
			list []*Class
			want string
		}
		var snaps []snapshot
		for _, i := range rng.Perm(40) {
			name := fmt.Sprintf("K%02d", i)
			if p.Class(name) != nil {
				continue
			}
			if err := p.AddClass(NewClass(name, "")); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
			if rng.Intn(3) == 0 {
				want := slices.Clone(names)
				slices.Sort(want)
				list := p.Classes()
				if got := classNames(list); got != fmt.Sprint(want) {
					t.Fatalf("trial %d: Classes() = %s, want %v", trial, got, want)
				}
				snaps = append(snaps, snapshot{list, fmt.Sprint(want)})
			}
		}
		for _, s := range snaps {
			if got := classNames(s.list); got != s.want {
				t.Fatalf("trial %d: an earlier Classes() slice changed to %s", trial, got)
			}
		}
	}
	if got := classNames(sealed.Classes()); got != baseList {
		t.Errorf("the sealed program's classes changed to %s", got)
	}
}

// TestCachedListsConcurrentReaders fills the Classes() merge and the
// Methods() caches from several goroutines at once on a program nobody
// mutates; under -race a non-atomic cache write is a reported race.
func TestCachedListsConcurrentReaders(t *testing.T) {
	p := NewProgram()
	for i := 0; i < 8; i++ {
		c := NewClass(fmt.Sprintf("C%d", 7-i), "")
		for _, name := range []string{"y", "x"} {
			if err := c.AddMethod(method(name, i%2)); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.AddClass(c); err != nil {
			t.Fatal(err)
		}
		if i == 3 {
			p.Classes() // cache a prefix, so the readers below merge
		}
	}
	const readers = 4
	got := make([]string, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := classNames(p.Classes())
			for _, c := range p.Classes() {
				s += methodNames(c.Methods())
			}
			got[r] = s
		}(r)
	}
	wg.Wait()
	for r := 1; r < readers; r++ {
		if got[r] != got[0] {
			t.Fatalf("readers disagree:\n%s\n%s", got[0], got[r])
		}
	}
	if want := "[C0 C1 C2 C3 C4 C5 C6 C7]"; got[0][:len(want)] != want {
		t.Errorf("Classes() = %s, want %s", got[0], want)
	}
}

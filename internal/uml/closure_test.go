package uml

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// referenceClosure is the unmemoised depth-first search Closure used
// before it cached results: dependencies copied and sorted at every
// visit, the chain copied at every step.
func referenceClosure(c *Catalog, requested []string) ([]*SystemService, error) {
	state := make(map[string]int)
	var order []*SystemService
	var visit func(name string, chain []string) error
	visit = func(name string, chain []string) error {
		switch state[name] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("uml: dependency cycle: %v -> %s", chain, name)
		}
		s := c.services[name]
		if s == nil {
			return fmt.Errorf("uml: unknown system service %q (requested via %v)", name, chain)
		}
		state[name] = 1
		deps := append([]string(nil), s.Deps...)
		sort.Strings(deps)
		for _, d := range deps {
			if err := visit(d, append(chain, name)); err != nil {
				return err
			}
		}
		state[name] = 2
		order = append(order, s)
		return nil
	}
	req := append([]string(nil), requested...)
	sort.Strings(req)
	for _, name := range req {
		if err := visit(name, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func serviceNames(list []*SystemService) []string {
	names := make([]string, len(list))
	for i, s := range list {
		names[i] = s.Name
	}
	return names
}

func sameNames(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClosureMatchesReferenceOnAllBaseSubsets checks the memoised
// closure of every subset of the S_I profile, the other Table 2
// profiles and every single service, both on the computing call and on
// the memo hit, against the reference search.
func TestClosureMatchesReferenceOnAllBaseSubsets(t *testing.T) {
	profile := ProfileBase()
	if len(profile) != 10 {
		t.Fatalf("profile has %d services, want 10", len(profile))
	}
	c := StandardCatalog()
	requests := [][]string{ProfileTomsrtbt(), ProfileLFS(), ProfileFullServer()}
	for _, name := range c.Names() {
		requests = append(requests, []string{name})
	}
	for mask := 0; mask < 1<<len(profile); mask++ {
		var req []string
		for i, name := range profile {
			if mask&(1<<i) != 0 {
				req = append(req, name)
			}
		}
		requests = append(requests, req)
	}
	for _, req := range requests {
		want, err := referenceClosure(c, req)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := c.Closure(req)
			if err != nil {
				t.Fatal(err)
			}
			if !sameNames(serviceNames(got), serviceNames(want)) {
				t.Fatalf("subset %v pass %d: %v, want %v", req, pass, serviceNames(got), serviceNames(want))
			}
			if cap(got) != len(got) {
				t.Fatalf("subset %v: shared result not clipped (len %d cap %d)", req, len(got), cap(got))
			}
		}
	}
}

func TestClosureRegisterResetsMemo(t *testing.T) {
	c := NewCatalog()
	c.Register(SystemService{Name: "base"})
	c.Register(SystemService{Name: "app", Deps: []string{"base"}})
	before, err := c.Closure([]string{"app"})
	if err != nil {
		t.Fatal(err)
	}
	if got := serviceNames(before); !sameNames(got, []string{"base", "app"}) {
		t.Fatalf("closure = %v", got)
	}
	c.Register(SystemService{Name: "log"})
	c.Register(SystemService{Name: "app", Deps: []string{"log", "base"}})
	after, err := c.Closure([]string{"app"})
	if err != nil {
		t.Fatal(err)
	}
	if got := serviceNames(after); !sameNames(got, []string{"base", "log", "app"}) {
		t.Fatalf("closure after re-register = %v, want [base log app]", got)
	}
	if got := serviceNames(before); !sameNames(got, []string{"base", "app"}) {
		t.Fatalf("earlier result changed to %v", got)
	}
}

func TestClosureErrorMessagesUnchanged(t *testing.T) {
	cyc := NewCatalog()
	cyc.Register(SystemService{Name: "a", Deps: []string{"b"}})
	cyc.Register(SystemService{Name: "b", Deps: []string{"c"}})
	cyc.Register(SystemService{Name: "c", Deps: []string{"a"}})
	cyc.Register(SystemService{Name: "d", Deps: []string{"missing"}})
	cyc.Register(SystemService{Name: "ab"})
	cyc.Register(SystemService{Name: "e", Deps: []string{"d", "ab"}})
	cyc.Register(SystemService{Name: "f", Deps: []string{"g", "ab"}})
	cyc.Register(SystemService{Name: "g", Deps: []string{"f"}})
	cases := []struct {
		req  []string
		want string
	}{
		{[]string{"a"}, "uml: dependency cycle: [a b c] -> a"},
		{[]string{"c"}, "uml: dependency cycle: [c a b] -> c"},
		{[]string{"nope"}, `uml: unknown system service "nope" (requested via [])`},
		{[]string{"d"}, `uml: unknown system service "missing" (requested via [d])`},
		// A finished sibling (ab) must not linger in the chain.
		{[]string{"e"}, `uml: unknown system service "missing" (requested via [e d])`},
		{[]string{"f"}, "uml: dependency cycle: [f g] -> f"},
	}
	for _, tc := range cases {
		_, ref := referenceClosure(cyc, tc.req)
		// Twice: errors are not memoised, so both calls search.
		for pass := 0; pass < 2; pass++ {
			_, err := cyc.Closure(tc.req)
			if err == nil || err.Error() != tc.want || err.Error() != ref.Error() {
				t.Fatalf("%v pass %d: err %v, want %q (reference %q)", tc.req, pass, err, tc.want, ref)
			}
		}
	}
	// The catalog stays usable: fixing the cycle resolves it.
	cyc.Register(SystemService{Name: "c"})
	if got, err := cyc.Closure([]string{"a"}); err != nil || !sameNames(serviceNames(got), []string{"c", "b", "a"}) {
		t.Fatalf("after fix: %v, %v", serviceNames(got), err)
	}
}

// TestClosureMemoKeyIsInjective: requests that concatenate to the same
// bytes must not share a memo entry.
func TestClosureMemoKeyIsInjective(t *testing.T) {
	c := NewCatalog()
	c.Register(SystemService{Name: "ab"})
	c.Register(SystemService{Name: "a"})
	c.Register(SystemService{Name: "b"})
	if got, _ := c.Closure([]string{"a", "b"}); !sameNames(serviceNames(got), []string{"a", "b"}) {
		t.Fatalf("closure(a, b) = %v", serviceNames(got))
	}
	if got, _ := c.Closure([]string{"ab"}); !sameNames(serviceNames(got), []string{"ab"}) {
		t.Fatalf("closure(ab) = %v", serviceNames(got))
	}
}

func TestClosureMemoHitAllocs(t *testing.T) {
	c := StandardCatalog()
	req := ProfileBase()
	if _, err := c.Closure(req); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() { c.Closure(req) }); a > 1 {
		t.Fatalf("memo hit = %v allocs, want at most 1", a)
	}
}

// TestClosureConcurrent runs memo misses and hits from many goroutines
// on one catalog, as concurrent boots do on the standard catalog.
func TestClosureConcurrent(t *testing.T) {
	c := StandardCatalog()
	profiles := [][]string{ProfileBase(), ProfileTomsrtbt(), ProfileLFS(), ProfileFullServer(), {"httpd"}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p := profiles[(g+i)%len(profiles)]
				got, err := c.Closure(p)
				want, _ := referenceClosure(StandardCatalog(), p)
				if err != nil || !sameNames(serviceNames(got), serviceNames(want)) {
					t.Errorf("closure(%v) = %v, %v", p, serviceNames(got), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkCatalogClosure(b *testing.B) {
	c := StandardCatalog()
	req := ProfileBase()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := c.Closure(req); err != nil {
			b.Fatal(err)
		}
	}
}

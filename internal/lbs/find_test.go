package lbs

import "testing"

// TestFind walks a Scoped→Cached→Service chain: Find returns the
// outermost layer of the wanted type and stops at a non-Wrapper.
func TestFind(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	cache := NewCachedOracle(svc, CacheOptions{})
	chain := NewScopedQuerier(cache, 10)

	if got, ok := Find[*Service](chain); !ok || got != svc {
		t.Errorf("Find[*Service] = %p, %v; want the service", got, ok)
	}
	if got, ok := Find[*CachedOracle](chain); !ok || got != cache {
		t.Errorf("Find[*CachedOracle] = %p, %v; want the cache", got, ok)
	}
	if got, ok := Find[Wrapper](chain); !ok || got != Wrapper(chain) {
		t.Errorf("Find[Wrapper] = %v, %v; want the outermost layer", got, ok)
	}
	if _, ok := Find[*ScopedQuerier](svc); ok {
		t.Error("Find walked inward from a non-Wrapper")
	}
	if _, ok := Find[*Service](nil); ok {
		t.Error("Find on nil found a layer")
	}
}

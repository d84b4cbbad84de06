package lbs

import (
	"fmt"
	"reflect"
	"testing"
)

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

// composite stands in for a federation router: a Querier with members
// but no Inner. clusterLike wraps one and promotes its Members, the
// way live.Cluster wraps its shard.Router.
type composite struct {
	Querier
	members []Querier
}

func (c composite) Members() []Querier { return c.members }

type clusterLike struct{ composite }

func (c clusterLike) Inner() Querier { return c.composite }

// TestWalk: Walk visits outermost first, descends a composite's
// members (marked as such) and walks a layer that both wraps and has
// members through its Inner only, so no member is visited twice.
func TestWalk(t *testing.T) {
	a := NewService(testDB(t), Options{K: 2})
	b := NewService(testDB(t), Options{K: 2})
	fed := composite{Querier: a, members: []Querier{NewCachedOracle(a, CacheOptions{}), b}}
	root := NewScopedQuerier(clusterLike{fed}, 0)

	var got []string
	Walk(root, func(layer any, member bool) {
		got = append(got, fmt.Sprintf("%T member=%v", layer, member))
	})
	want := []string{
		"*lbs.ScopedQuerier member=false",
		"lbs.clusterLike member=false",
		"lbs.composite member=false",
		"*lbs.CachedOracle member=true",
		"*lbs.Service member=true",
		"*lbs.Service member=true",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Walk visited\n%v\nwant\n%v", got, want)
	}
	Walk(nil, func(any, bool) { t.Error("Walk on nil visited a layer") })
}

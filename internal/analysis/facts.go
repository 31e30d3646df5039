package analysis

// Cross-package facts — the stdlib counterpart of x/tools' analysis
// facts. A fact is a serializable statement an analyzer proves about a
// function (its acquires-summary) or about a whole package (the
// accumulated lock graph). Facts computed while analyzing package A are
// written to A's .vetx file (gob-encoded); when go vet later analyzes a
// package importing A, the driver hands A's facts back in through
// vet.cfg's PackageVetx map, so analyzers compose across locks →
// shardedkv → kvserver without any whole-program load.
//
// Functions are keyed structurally rather than by objectpath: package
// path plus "Name" for package-level functions and "Recv.Name" for
// methods. That covers every object this suite states facts about;
// any other object cannot carry facts, and Export on it is a silent
// no-op.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a gob-serializable statement about a program object or
// package. Implementations must be pointers to concrete exported
// structs and are registered with gob via RegisterFactTypes.
type Fact interface {
	// AFact is a marker method (it does nothing).
	AFact()
}

// factKey identifies one stored fact: the object's package path, the
// structural object key ("" for package facts), and the concrete fact
// type's name (one object can carry one fact per type).
type factKey struct {
	Pkg  string
	Obj  string
	Type string
}

// FactStore holds the facts visible to one package's analysis: the
// decoded facts of every dependency plus the facts exported while
// analyzing the package itself. Encode writes the union, so vetx files
// are cumulative along the import DAG and transitive dependencies need
// no special handling.
type FactStore struct {
	m map[factKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]Fact)}
}

func factType(f Fact) string { return reflect.TypeOf(f).String() }

// RegisterFactTypes registers every analyzer's FactTypes with gob.
// Call once before encoding or decoding vetx data (Main and the
// analysistest harness both do).
func RegisterFactTypes(analyzers []*Analyzer) {
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			gob.Register(f)
		}
	}
}

// objectKey returns the structural key for obj, or "" when obj cannot
// carry facts (anything but a package-level function or a method of a
// named type).
func objectKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name() + "." + fn.Name()
}

// exportObject records fact about obj (no-op when obj is unkeyable).
func (s *FactStore) exportObject(obj types.Object, fact Fact) {
	key := objectKey(obj)
	if key == "" {
		return
	}
	s.m[factKey{Pkg: obj.Pkg().Path(), Obj: key, Type: factType(fact)}] = fact
}

// importObject copies a stored fact about obj into fact (a pointer to
// the matching concrete type) and reports whether one was found.
func (s *FactStore) importObject(obj types.Object, fact Fact) bool {
	key := objectKey(obj)
	if key == "" {
		return false
	}
	return s.copyInto(factKey{Pkg: obj.Pkg().Path(), Obj: key, Type: factType(fact)}, fact)
}

// exportPackage records fact about the package with the given path.
func (s *FactStore) exportPackage(path string, fact Fact) {
	s.m[factKey{Pkg: path, Type: factType(fact)}] = fact
}

// importPackage copies the stored package fact for path into fact.
func (s *FactStore) importPackage(path string, fact Fact) bool {
	return s.copyInto(factKey{Pkg: path, Type: factType(fact)}, fact)
}

func (s *FactStore) copyInto(key factKey, fact Fact) bool {
	stored, ok := s.m[key]
	if !ok {
		return false
	}
	// *fact = *stored, so the caller owns an independent copy whatever
	// the store's lifetime (mirrors the gob round trip between
	// packages).
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// vetxRecord is the on-disk form of one fact.
type vetxRecord struct {
	Pkg  string
	Obj  string // "" = package fact
	Fact Fact
}

// Encode serializes the store's facts (sorted, for deterministic
// output) into the vetx payload written after a package's analysis.
func (s *FactStore) Encode() ([]byte, error) {
	recs := make([]vetxRecord, 0, len(s.m))
	for k, f := range s.m {
		recs = append(recs, vetxRecord{Pkg: k.Pkg, Obj: k.Obj, Fact: f})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Pkg != recs[j].Pkg {
			return recs[i].Pkg < recs[j].Pkg
		}
		if recs[i].Obj != recs[j].Obj {
			return recs[i].Obj < recs[j].Obj
		}
		return factType(recs[i].Fact) < factType(recs[j].Fact)
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		return nil, fmt.Errorf("encoding facts: %v", err)
	}
	return buf.Bytes(), nil
}

// AddEncoded merges a dependency's encoded vetx payload into the
// store. Empty payloads (the driver writes zero-byte vetx files for
// out-of-module packages) merge as nothing.
func (s *FactStore) AddEncoded(data []byte) error {
	if len(data) == 0 {
		return nil
	}
	var recs []vetxRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recs); err != nil {
		return fmt.Errorf("decoding facts: %v", err)
	}
	for _, r := range recs {
		if r.Fact == nil {
			continue
		}
		s.m[factKey{Pkg: r.Pkg, Obj: r.Obj, Type: factType(r.Fact)}] = r.Fact
	}
	return nil
}

package backend

import (
	"fmt"
	"strings"
)

// mountRoot is the logical store directory used whenever a backend has no
// host-filesystem root of its own (mem:, file:, mount: specs). Dir stores
// keep using their real path so existing on-disk layouts stay addressable.
const mountRoot = "/prov"

// storeSpec is a parsed store spec string. Parsing is pure — no backend is
// opened and no I/O happens; Open constructs the backend it describes.
//
// Grammar:
//
//	dir:/path          directory store (also the schemeless default:
//	                   a bare path means dir:)
//	mem:               in-memory store
//	file:/path.pvs     single-file archive store
//	mount:hot=SPEC,cold=SPEC
//	                   two-tier mounted store; SPEC is any non-mount spec
//	                   (tier paths therefore cannot contain commas)
type storeSpec struct {
	Scheme string     // "dir", "mem", "file", or "mount"
	Path   string     // dir root or archive file; empty for mem and mount
	Hot    *storeSpec // mount tiers
	Cold   *storeSpec
}

// parseSpec parses a store spec string; a mount's tiers are parsed with
// allowMount false. It performs no I/O.
func parseSpec(s string, allowMount bool) (storeSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return storeSpec{}, fmt.Errorf("backend: empty store spec")
	}
	scheme, rest, ok := strings.Cut(s, ":")
	if !ok {
		// A bare path is a directory store.
		return storeSpec{Scheme: "dir", Path: s}, nil
	}
	switch scheme {
	case "dir":
		if rest == "" {
			return storeSpec{}, fmt.Errorf("backend: store spec %q: dir: needs a path", s)
		}
		return storeSpec{Scheme: "dir", Path: rest}, nil
	case "mem":
		if rest != "" {
			return storeSpec{}, fmt.Errorf("backend: store spec %q: mem: takes no path", s)
		}
		return storeSpec{Scheme: "mem"}, nil
	case "file":
		if rest == "" {
			return storeSpec{}, fmt.Errorf("backend: store spec %q: file: needs an archive path", s)
		}
		return storeSpec{Scheme: "file", Path: rest}, nil
	case "mount":
		if !allowMount {
			return storeSpec{}, fmt.Errorf("backend: store spec %q: mounts cannot nest", s)
		}
		return parseMount(s, rest)
	default:
		// Unknown "scheme" is most likely a path with a colon in it; only
		// reject when it looks like a scheme attempt (all lowercase letters).
		if isSchemeLike(scheme) {
			return storeSpec{}, fmt.Errorf("backend: store spec %q: unknown scheme %q (want dir, mem, file, or mount)", s, scheme)
		}
		return storeSpec{Scheme: "dir", Path: s}, nil
	}
}

func isSchemeLike(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < 'a' || r > 'z' {
			return false
		}
	}
	return true
}

func parseMount(full, rest string) (storeSpec, error) {
	spec := storeSpec{Scheme: "mount"}
	for _, part := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return storeSpec{}, fmt.Errorf("backend: store spec %q: mount part %q is not key=spec", full, part)
		}
		sub, err := parseSpec(val, false)
		if err != nil {
			return storeSpec{}, err
		}
		switch key {
		case "hot":
			if spec.Hot != nil {
				return storeSpec{}, fmt.Errorf("backend: store spec %q: duplicate hot tier", full)
			}
			spec.Hot = &sub
		case "cold":
			if spec.Cold != nil {
				return storeSpec{}, fmt.Errorf("backend: store spec %q: duplicate cold tier", full)
			}
			spec.Cold = &sub
		default:
			return storeSpec{}, fmt.Errorf("backend: store spec %q: unknown mount tier %q (want hot or cold)", full, key)
		}
	}
	if spec.Hot == nil || spec.Cold == nil {
		return storeSpec{}, fmt.Errorf("backend: store spec %q: a mount needs both hot= and cold= tiers", full)
	}
	return spec, nil
}

// String renders the spec back to its canonical spec-string form.
func (s storeSpec) String() string {
	switch s.Scheme {
	case "mem":
		return "mem:"
	case "mount":
		return "mount:hot=" + s.Hot.String() + ",cold=" + s.Cold.String()
	default:
		return s.Scheme + ":" + s.Path
	}
}

// Open constructs the backend the spec describes and returns it together
// with the logical store directory to pass to the store layer. Directory
// stores keep their on-disk path as the store directory; every other scheme
// uses mountRoot.
func (s storeSpec) Open() (Storage, string, error) {
	switch s.Scheme {
	case "dir":
		return Dir{}, strings.TrimSuffix(s.Path, "/"), nil
	case "mem":
		return NewMem(), mountRoot, nil
	case "file":
		a, err := OpenArchive(s.Path)
		if err != nil {
			return nil, "", err
		}
		return a, mountRoot, nil
	case "mount":
		hot, err := s.Hot.tier("hot", true)
		if err != nil {
			return nil, "", err
		}
		cold, err := s.Cold.tier("cold", false)
		if err != nil {
			return nil, "", err
		}
		m, err := NewMount(mountRoot, hot, cold)
		if err != nil {
			return nil, "", err
		}
		return m, mountRoot, nil
	default:
		return nil, "", fmt.Errorf("backend: cannot open store spec with scheme %q", s.Scheme)
	}
}

// tier opens one mount tier; the tier's root inside its own backend is the
// backend's natural store directory.
func (s *storeSpec) tier(name string, hot bool) (Tier, error) {
	b, root, err := s.Open()
	if err != nil {
		return Tier{}, err
	}
	return Tier{Name: name, Hot: hot, B: b, Root: root}, nil
}

// Open parses and opens a store spec string in one step.
func Open(spec string) (Storage, string, error) {
	s, err := parseSpec(spec, true)
	if err != nil {
		return nil, "", err
	}
	return s.Open()
}

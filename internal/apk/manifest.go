package apk

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"

	"flowdroid/internal/framework"
)

// attr fetches an attribute by local name, ignoring the android: namespace
// prefix (real manifests qualify attributes; we accept both).
func attr(attrs []xml.Attr, local string) (string, bool) {
	for _, a := range attrs {
		if a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// componentTags are the <application> children that declare components,
// in the order ParseManifest lists their kinds.
var componentTags = [...]struct {
	tag  string
	kind framework.ComponentKind
}{
	{"activity", framework.Activity},
	{"service", framework.Service},
	{"receiver", framework.Receiver},
	{"provider", framework.Provider},
}

// ParseManifest parses AndroidManifest.xml content into the manifest
// model. Component names beginning with "." are resolved against the
// package name, as on Android.
func ParseManifest(data []byte) (*Manifest, error) {
	return parseManifest(bytes.NewReader(data))
}

// parseManifest reads the manifest with a token loop. It reads what
// xml.Unmarshal would into a manifest/application/component/
// intent-filter/action tree, and nothing more: the document up to the
// root's end tag, the root's package attribute (the last one wins), the
// first android:name among the <application> elements' attributes, and
// each component element directly under an <application>, with the
// actions of its intent filters. Any other element is skipped with its
// subtree. Components are listed by kind in componentTags order, then in
// document order.
func parseManifest(r io.Reader) (*Manifest, error) {
	dec := xml.NewDecoder(r)
	var root xml.StartElement
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("apk: parsing manifest: %w", err)
		}
		if se, ok := tok.(xml.StartElement); ok {
			root = se
			break
		}
	}
	if root.Name.Local != "manifest" {
		return nil, fmt.Errorf("apk: parsing manifest: %w",
			xml.UnmarshalError("expected element type <manifest> but have <"+root.Name.Local+">"))
	}
	m := &Manifest{}
	for _, a := range root.Attr {
		if a.Name.Local == "package" {
			m.Package = a.Value
		}
	}

	var comps [len(componentTags)][]*Component
	var cur *Component // the component element being read
	appName, appNamed := "", false
	// depth counts the open elements below the root; matched is how many
	// of them, from the outermost, follow the component path.
	depth, matched := 0, 0
	for depth >= 0 {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("apk: parsing manifest: %w", err)
		}
		switch t := tok.(type) {
		case xml.EndElement:
			if matched == depth {
				matched--
			}
			depth--
		case xml.StartElement:
			depth++
			if matched != depth-1 {
				continue
			}
			switch name := t.Name.Local; {
			case depth == 1 && name == "application":
				matched = depth
				if !appNamed {
					appName, appNamed = attr(t.Attr, "name")
				}
			case depth == 2:
				for i, ct := range componentTags {
					if name != ct.tag {
						continue
					}
					matched = depth
					cur = &Component{Kind: ct.kind, Enabled: true}
					cur.Class, _ = attr(t.Attr, "name")
					if v, ok := attr(t.Attr, "enabled"); ok {
						cur.Enabled = v != "false"
					}
					if v, ok := attr(t.Attr, "exported"); ok {
						cur.Exported = v == "true"
					}
					comps[i] = append(comps[i], cur)
					break
				}
			case depth == 3 && name == "intent-filter":
				matched = depth
			case depth == 4 && name == "action":
				matched = depth
				if v, ok := attr(t.Attr, "name"); ok {
					cur.IntentActions = append(cur.IntentActions, v)
					if v == "android.intent.action.MAIN" {
						cur.Main = true
					}
				}
			}
		}
	}

	if m.Package == "" {
		return nil, fmt.Errorf("apk: manifest has no package attribute")
	}
	qualify := func(name string) string {
		if strings.HasPrefix(name, ".") {
			return m.Package + name
		}
		return name
	}
	if appName != "" {
		m.Application = qualify(appName)
	}
	for i, list := range comps {
		for _, c := range list {
			if c.Class == "" {
				return nil, fmt.Errorf("apk: %s component without android:name", componentTags[i].kind)
			}
			c.Class = qualify(c.Class)
			m.Components = append(m.Components, c)
		}
	}
	return m, nil
}

// ParseLayout parses a res/layout XML file, read from r, into the flat
// control model. The element tree is walked generically: any element
// carrying android:id, android:onClick or android:inputType contributes
// a control.
func ParseLayout(name string, r io.Reader) (*Layout, error) {
	l := &Layout{Name: name}
	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("apk: parsing layout %s: %w", name, err)
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		ctl := &Control{Kind: se.Name.Local}
		if v, ok := attr(se.Attr, "id"); ok {
			ctl.ID = strings.TrimPrefix(strings.TrimPrefix(v, "@+id/"), "@id/")
		}
		if v, ok := attr(se.Attr, "onClick"); ok {
			ctl.OnClick = v
		}
		if v, ok := attr(se.Attr, "inputType"); ok {
			ctl.InputType = v
		}
		if ctl.ID != "" || ctl.OnClick != "" || ctl.InputType != "" {
			l.Controls = append(l.Controls, ctl)
		}
	}
	return l, nil
}

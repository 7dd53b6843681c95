// Package apk models Android application packages: the manifest declaring
// the app's components, the layout XML resources declaring UI controls and
// their callbacks, a resource-ID table, and the app's code. It is the
// stand-in for real APK handling (unzipping, AXML decoding and Dexpler):
// packages are directories, zip archives or in-memory file sets containing
// AndroidManifest.xml, res/layout/*.xml and *.ir code files.
package apk

import (
	"fmt"
	"sort"

	"flowdroid/internal/framework"
	"flowdroid/internal/ir"
)

// App is a fully loaded application: linked program (framework + app
// classes), manifest model, layouts and resource table.
type App struct {
	// Package is the app's package name from the manifest.
	Package string
	// Program holds the framework model plus the app's classes, linked.
	Program *ir.Program
	// Manifest is the parsed manifest model.
	Manifest *Manifest
	// Layouts maps layout names (file basename without .xml) to their
	// parsed models.
	Layouts map[string]*Layout
	// Res is the synthesized resource-ID table.
	Res *ResTable
}

// Components returns the manifest components that are enabled and whose
// classes exist in the program, in manifest order. Disabled components are
// filtered out exactly as the dummy-main generator requires.
func (a *App) Components() []*Component {
	var out []*Component
	for _, c := range a.Manifest.Components {
		if !c.Enabled {
			continue
		}
		if a.Program.Class(c.Class) == nil {
			continue
		}
		out = append(out, c)
	}
	return out
}

// ComponentByClass returns the manifest component entry for a class, or
// nil.
func (a *App) ComponentByClass(class string) *Component {
	for _, c := range a.Manifest.Components {
		if c.Class == class {
			return c
		}
	}
	return nil
}

// Validate checks structural consistency: every enabled component class
// must exist and be a subtype of its declared kind's base class.
func (a *App) Validate() error {
	for _, c := range a.Components() {
		base := framework.BaseClass(c.Kind)
		if !a.Program.SubtypeOf(c.Class, base) {
			return fmt.Errorf("apk: component %s declared as %s but does not extend %s",
				c.Class, c.Kind, base)
		}
	}
	return nil
}

// Manifest is the parsed AndroidManifest.xml model.
type Manifest struct {
	Package string
	// Application is the custom android.app.Application subclass named
	// by <application android:name=...>, or "".
	Application string
	Components  []*Component
}

// Component is one manifest component declaration.
type Component struct {
	Kind framework.ComponentKind
	// Class is the fully qualified component class name.
	Class string
	// Enabled mirrors android:enabled (default true). Disabled components
	// are excluded from the lifecycle model.
	Enabled bool
	// Main reports whether the component carries a MAIN action intent
	// filter.
	Main bool
	// Exported mirrors android:exported.
	Exported bool
	// IntentActions lists the actions of the component's intent filters.
	IntentActions []string
}

// Layout is a parsed res/layout/*.xml model: the flat list of controls
// that carry IDs, click handlers or input types.
type Layout struct {
	Name     string
	Controls []*Control
}

// Control is a UI control declared in a layout.
type Control struct {
	// Kind is the element name, e.g. "EditText" or "Button".
	Kind string
	// ID is the control's resource id name (from android:id="@+id/NAME"),
	// or "" if none.
	ID string
	// OnClick is the callback method name from android:onClick, or "".
	OnClick string
	// InputType mirrors android:inputType.
	InputType string
}

// IsPassword reports whether the control is a sensitive password input,
// whose contents the source manager treats as a taint source.
func (c *Control) IsPassword() bool {
	return c.InputType == "textPassword" || c.InputType == "textWebPassword" ||
		c.InputType == "numberPassword"
}

// PasswordControls returns the layout's password input controls.
func (l *Layout) PasswordControls() []*Control {
	var out []*Control
	for _, c := range l.Controls {
		if c.IsPassword() {
			out = append(out, c)
		}
	}
	return out
}

// ClickHandlers returns the layout's declaratively registered click
// handler method names, deduplicated and sorted.
func (l *Layout) ClickHandlers() []string {
	seen := make(map[string]bool)
	var out []string
	for _, c := range l.Controls {
		if c.OnClick != "" && !seen[c.OnClick] {
			seen[c.OnClick] = true
			out = append(out, c.OnClick)
		}
	}
	sort.Strings(out)
	return out
}

// ClickHandlers collects each layout's declaratively registered click
// handlers, keyed by layout name, for the IR verifier's registrations
// analyzer.
func (a *App) ClickHandlers() map[string][]string {
	out := make(map[string][]string)
	for name, l := range a.Layouts {
		if hs := l.ClickHandlers(); len(hs) > 0 {
			out[name] = hs
		}
	}
	return out
}

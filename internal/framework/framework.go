// Package framework provides the Android and Java library model the
// analyses link against: stub classes (the stand-in for android.jar),
// lifecycle metadata for the four Android component kinds, and the
// registry of well-known callback interfaces.
//
// Stub methods have no bodies; the taint analysis handles calls to them
// through taint-wrapper shortcut rules or the native-call default, exactly
// as FlowDroid treats library methods without an explicit model.
package framework

import (
	"fmt"
	"sync"

	"flowdroid/internal/ir"
	"flowdroid/internal/irtext"
)

// ComponentKind identifies the four Android component kinds plus
// non-components.
type ComponentKind int

const (
	// NotAComponent marks classes that are not Android components.
	NotAComponent ComponentKind = iota
	// Activity is a single focused user screen.
	Activity
	// Service is a background task.
	Service
	// Receiver is a broadcast receiver listening for global events.
	Receiver
	// Provider is a database-like content provider.
	Provider
)

func (k ComponentKind) String() string {
	switch k {
	case Activity:
		return "activity"
	case Service:
		return "service"
	case Receiver:
		return "receiver"
	case Provider:
		return "provider"
	}
	return "none"
}

// Base class names of the component kinds.
const (
	ActivityClass = "android.app.Activity"
	ServiceClass  = "android.app.Service"
	ReceiverClass = "android.content.BroadcastReceiver"
	ProviderClass = "android.content.ContentProvider"
)

// BaseClass returns the framework base class for a component kind.
func BaseClass(k ComponentKind) string {
	switch k {
	case Activity:
		return ActivityClass
	case Service:
		return ServiceClass
	case Receiver:
		return ReceiverClass
	case Provider:
		return ProviderClass
	}
	return ""
}

// KindOf classifies a class by walking its superclass chain.
func KindOf(prog ir.Hierarchy, class string) ComponentKind {
	switch {
	case prog.SubtypeOf(class, ActivityClass):
		return Activity
	case prog.SubtypeOf(class, ServiceClass):
		return Service
	case prog.SubtypeOf(class, ReceiverClass):
		return Receiver
	case prog.SubtypeOf(class, ProviderClass):
		return Provider
	}
	return NotAComponent
}

// MethodSig names a method by name and arity, the granularity at which the
// IR resolves overloads.
type MethodSig struct {
	Name  string
	NArgs int
}

// Lifecycle method sequences per component kind, in their canonical
// execution order. The lifecycle generator consumes these.
var (
	// ActivityLifecycle is the activity lifecycle as modeled in Figure 1
	// of the paper.
	ActivityLifecycle = []MethodSig{
		{"onCreate", 1}, {"onStart", 0}, {"onRestoreInstanceState", 1},
		{"onResume", 0}, {"onPause", 0}, {"onSaveInstanceState", 1},
		{"onStop", 0}, {"onRestart", 0}, {"onDestroy", 0},
	}
	// ServiceLifecycle is the service lifecycle.
	ServiceLifecycle = []MethodSig{
		{"onCreate", 0}, {"onStartCommand", 1}, {"onBind", 1},
		{"onUnbind", 1}, {"onDestroy", 0},
	}
	// ReceiverLifecycle is the broadcast receiver lifecycle.
	ReceiverLifecycle = []MethodSig{{"onReceive", 2}}
	// ProviderLifecycle is the content provider lifecycle.
	ProviderLifecycle = []MethodSig{
		{"onCreate", 0}, {"query", 2}, {"insert", 2}, {"update", 2}, {"delete", 2},
	}
)

// LifecycleOf returns the lifecycle method list for a component kind.
func LifecycleOf(k ComponentKind) []MethodSig {
	switch k {
	case Activity:
		return ActivityLifecycle
	case Service:
		return ServiceLifecycle
	case Receiver:
		return ReceiverLifecycle
	case Provider:
		return ProviderLifecycle
	}
	return nil
}

// IsLifecycleMethod reports whether (name, nargs) is a lifecycle method of
// the given component kind.
func IsLifecycleMethod(k ComponentKind, name string, nargs int) bool {
	for _, m := range LifecycleOf(k) {
		if m.Name == name && m.NArgs == nargs {
			return true
		}
	}
	return false
}

// CallbackInterfaces maps each well-known callback interface to the
// callback methods the framework may invoke on implementors. The callback
// discovery pass scans for calls to framework methods taking one of these
// interfaces as a formal parameter.
var CallbackInterfaces = map[string][]MethodSig{
	"android.view.View$OnClickListener":     {{"onClick", 1}},
	"android.view.View$OnLongClickListener": {{"onLongClick", 1}},
	"android.view.View$OnTouchListener":     {{"onTouch", 2}},
	"android.location.LocationListener": {
		{"onLocationChanged", 1}, {"onProviderEnabled", 1},
		{"onProviderDisabled", 1}, {"onStatusChanged", 2},
	},
	"android.content.DialogInterface$OnClickListener": {{"onClick", 2}},
	"java.lang.Runnable":                              {{"run", 0}},
	"android.widget.TextWatcher": {
		{"beforeTextChanged", 2}, {"onTextChanged", 2}, {"afterTextChanged", 1},
	},
}

// IsCallbackInterface reports whether the named interface is a registered
// callback interface.
func IsCallbackInterface(name string) bool {
	_, ok := CallbackInterfaces[name]
	return ok
}

// OverridableMethods lists framework methods that, when overridden by an
// app class, are invoked directly by the framework and must therefore be
// treated as callbacks even without an explicit registration (the
// "undocumented callbacks" of the paper, cf. DroidBench MethodOverride1).
var OverridableMethods = []MethodSig{
	{"onLowMemory", 0},
	{"onTrimMemory", 1},
	{"onConfigurationChanged", 1},
	{"onActivityResult", 1},
	{"onNewIntent", 1},
	{"onUserLeaveHint", 0},
	{"onBackPressed", 0},
}

// IsOverridableMethod reports whether (name, nargs) is a framework method
// callable by the system when overridden.
func IsOverridableMethod(name string, nargs int) bool {
	for _, m := range OverridableMethods {
		if m.Name == name && m.NArgs == nargs {
			return true
		}
	}
	return false
}

// NewProgram returns a fresh program preloaded with the linked framework
// model. The stubs are parsed and linked once per process; every program
// NewProgram returns shares those classes read-only, and the classes added
// to it are its own. Call prog.Link() after adding the app classes.
func NewProgram() *ir.Program { return base().Clone() }

// base is the linked framework model every NewProgram result clones.
var base = sync.OnceValue(func() *ir.Program {
	prog := ir.NewProgram()
	err := irtext.ParseInto(prog, stubSource, "framework.ir")
	if err == nil {
		err = prog.Link()
	}
	if err != nil {
		// The framework source is a compile-time constant; failing to
		// parse or link it is a programming error in this package.
		panic(fmt.Sprintf("framework: %v", err))
	}
	return prog
})

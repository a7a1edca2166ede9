module mobipriv/bench

go 1.24

require mobipriv v0.0.0

replace mobipriv => ../

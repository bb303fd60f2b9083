var x = 1;
function g() { undeclared = 5; return this; }
print(typeof g());
